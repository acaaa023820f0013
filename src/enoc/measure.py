"""Finite-atom parameter spaces and the weighted L2 geometry of ensemble states.

A parameter space is a finite list of atoms (abstract parameter points), each
carrying a positive mass, together with a validated metric between atoms.  An
ensemble state assigns one n-dimensional state vector to every atom; the
mass-weighted inner product below makes the set of ensemble states a
finite-dimensional stand-in for a weighted L2 space of parameter-indexed
states.

Total mass is whatever the weights sum to; normalisation to a probability
measure is accepted but not required.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatchError

SPACE_FORMAT = "enoc-space/1"

# slack for float noise when checking metric axioms
_METRIC_ATOL = 1e-12


class ParameterSpace:
    """Atoms with positive masses and a validated metric.

    Parameters
    ----------
    weights : (M,) positive masses; need not sum to one.
    metric : (M, M) pairwise distances, optional.  Validated for symmetry,
        zero diagonal, nonnegativity and the triangle inequality (O(M^3),
        fine for the few hundred atoms this package targets).  If omitted,
        ``coords`` must be given and the Euclidean embedding metric is used.
    coords : (M, d) coordinate embedding of the atoms, optional.
    labels : per-atom identifiers, optional (defaults to ``w0, w1, ...``).

    Instances are immutable after construction and safe to share between
    threads; all array fields are read-only views.
    """

    def __init__(self, weights, metric=None, coords=None, labels=None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a 1-D array with at least one atom")
        if not np.all(np.isfinite(w)):
            bad = int(np.flatnonzero(~np.isfinite(w))[0])
            raise ValueError(f"weight of atom {bad} is not finite")
        if np.any(w <= 0.0):
            bad = int(np.flatnonzero(w <= 0.0)[0])
            raise ValueError(f"weight of atom {bad} must be positive, got {w[bad]}")
        m = w.size

        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.ndim != 2:
                raise ValueError(f"coords must be an (M, d) array, got {coords.ndim} axes")
            if coords.shape[0] != m:
                raise ValueError(
                    f"coords has {coords.shape[0]} rows for {m} atoms"
                )
            if not np.all(np.isfinite(coords)):
                bad = int(np.flatnonzero(~np.isfinite(coords).all(axis=1))[0])
                raise ValueError(f"coords of atom {bad} are not finite")

        if metric is None:
            if coords is None:
                raise ValueError("either metric or coords must be provided")
            with np.errstate(over="ignore"):
                diff = coords[:, None, :] - coords[None, :, :]
                metric = np.sqrt((diff * diff).sum(axis=-1))
            if not np.all(np.isfinite(metric)):
                i, j = np.argwhere(~np.isfinite(metric))[0]
                raise ValueError(f"distance of atoms ({i},{j}) overflows; rescale coords")
        else:
            metric = np.asarray(metric, dtype=float)
            if metric.shape != (m, m):
                raise ValueError(
                    f"metric must be {m}x{m}, got {metric.shape}"
                )
            self._validate_metric(metric)

        if labels is None:
            labels = [f"w{i}" for i in range(m)]
        elif len(labels) != m:
            raise ValueError(f"got {len(labels)} labels for {m} atoms")

        self._weights = w
        self._metric = metric
        self._coords = coords
        self._labels = [str(x) for x in labels]
        for arr in (self._weights, self._metric, self._coords):
            if arr is not None:
                arr.setflags(write=False)

    @staticmethod
    def _validate_metric(d):
        if not np.all(np.isfinite(d)):
            i, j = np.argwhere(~np.isfinite(d))[0]
            raise ValueError(f"metric entry ({i},{j}) is not finite")
        if np.any(d < 0.0):
            i, j = np.argwhere(d < 0.0)[0]
            raise ValueError(f"metric entry ({i},{j}) is negative")
        bad_diag = np.flatnonzero(np.abs(np.diag(d)) > _METRIC_ATOL)
        if bad_diag.size:
            i = int(bad_diag[0])
            raise ValueError(f"metric diagonal entry ({i},{i}) is nonzero")
        asym = np.abs(d - d.T)
        if asym.max() > _METRIC_ATOL:
            i, j = np.argwhere(asym > _METRIC_ATOL)[0]
            raise ValueError(f"metric is asymmetric at ({i},{j})")
        # d[i,j] <= min_k d[i,k] + d[k,j], allowing float slack
        with np.errstate(over="ignore"):     # an overflowing detour is no shortcut
            via = (d[:, :, None] + d[None, :, :]).min(axis=1)
        viol = d - via
        slack = _METRIC_ATOL * (1.0 + d.max())
        if viol.max() > slack:
            i, j = np.argwhere(viol > slack)[0]
            k = int(np.argmin(d[i, :] + d[:, j]))
            raise ValueError(
                f"triangle inequality fails for atoms ({i},{j}) via {k}: "
                f"d={d[i, j]:.6g} > {via[i, j]:.6g}"
            )

    @property
    def size(self):
        return self._weights.size

    @property
    def weights(self):
        return self._weights

    @property
    def metric(self):
        return self._metric

    @property
    def coords(self):
        return self._coords

    @property
    def labels(self):
        return list(self._labels)

    @property
    def mass(self):
        """Total mass of the space (sum of weights)."""
        return float(self._weights.sum())

    def __repr__(self):
        return f"ParameterSpace(M={self.size}, mass={self.mass:.6g})"

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        doc = {
            "format": SPACE_FORMAT,
            "atoms": [
                {"id": lbl} if self._coords is None
                else {"id": lbl, "coords": list(map(float, self._coords[i]))}
                for i, lbl in enumerate(self._labels)
            ],
            "weights": [float(x) for x in self._weights],
        }
        if self._coords is None:
            doc["metric"] = [[float(x) for x in row] for row in self._metric]
        return doc

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"a space must be a JSON object, got {doc!r:.60}")
        if doc.get("format") != SPACE_FORMAT:
            raise ValueError(
                f"unsupported space format {doc.get('format')!r}, expected {SPACE_FORMAT!r}"
            )
        atoms = doc["atoms"]
        if not (isinstance(atoms, list) and all(isinstance(a, dict) for a in atoms)):
            raise ValueError(
                f"space key 'atoms' must be a list of objects, got {atoms!r:.60}")
        labels = [a["id"] for a in atoms]
        coords = None
        if atoms and "coords" in atoms[0]:
            coords = [a["coords"] for a in atoms]
        return cls(
            weights=doc["weights"],
            metric=doc.get("metric"),
            coords=coords,
            labels=labels,
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class EnsembleState:
    """One n-dimensional state vector per atom: an (M, n) array tied to a space."""

    def __init__(self, values, space: ParameterSpace):
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise DimensionMismatchError(
                f"state values must be (M, n), got shape {vals.shape}"
            )
        if vals.shape[0] != space.size:
            raise DimensionMismatchError(
                f"state has {vals.shape[0]} rows but space has {space.size} atoms"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals).all(axis=1))[0])
            raise ValueError(f"state of atom {bad} is not finite")
        vals = vals.copy()
        vals.setflags(write=False)
        self.values = vals
        self.space = space

    @classmethod
    def zeros(cls, space, n):
        return cls(np.zeros((space.size, n)), space)

    @property
    def n(self):
        return self.values.shape[1]

    def __repr__(self):
        return f"EnsembleState(M={self.space.size}, n={self.n})"


def _check_pair(phi: EnsembleState, psi: EnsembleState):
    if phi.space is not psi.space and not np.array_equal(
        phi.space.weights, psi.space.weights
    ):
        raise DimensionMismatchError("states live on different parameter spaces")
    if phi.values.shape != psi.values.shape:
        raise DimensionMismatchError(
            f"state shapes differ: {phi.values.shape} vs {psi.values.shape}"
        )


def l2_inner(phi: EnsembleState, psi: EnsembleState) -> float:
    """Mass-weighted inner product sum_i w_i (phi_i . psi_i)."""
    _check_pair(phi, psi)
    return float(np.einsum("i,ij,ij->", phi.space.weights, phi.values, psi.values))


def l2_norm(phi: EnsembleState) -> float:
    """Norm induced by :func:`l2_inner`; zero exactly for the zero state."""
    q = np.einsum("i,ij,ij->", phi.space.weights, phi.values, phi.values)
    return float(np.sqrt(q))


def ball_mass(space: ParameterSpace, r: float) -> float:
    """Smallest mass of an open metric ball of radius r over all centers.

    Open balls (strict inequality) are used throughout; callers should avoid
    radii exactly equal to a pairwise distance.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    inside = space.metric < r
    masses = inside @ space.weights
    return float(masses.min())


def ball_average(space: ParameterSpace, F: EnsembleState, r: float) -> EnsembleState:
    """Replace each atom value by the mass-weighted mean over its open r-ball.

    Every ball contains its own center, so the averaging weights never
    degenerate.  The operator is linear, exact on ensemble-constant states,
    and sup-norm nonexpansive; it is not an L2 contraction for every space.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    if F.space is not space:
        _check_pair(F, EnsembleState.zeros(space, F.n))
    inside = space.metric < r
    w_in = inside * space.weights[None, :]
    denom = w_in.sum(axis=1)
    avg = (w_in @ F.values) / denom[:, None]
    return EnsembleState(avg, space)
