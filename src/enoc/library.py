"""Built-in problem library, closed-form references, and problem files.

Each builtin returns a fully certified :class:`~enoc.problem.ProblemSpec`
whose declared constants pass the verify checks that read them, plus enough
metadata to rebuild it from a manifest.  The scalar-coefficient linear family also ships
a closed-form optimum used as an external reference by the solvers' tests.

Problem files are JSON (format tag ``enoc-problem/1``) and either name a
builtin with parameters or define dynamics/cost through the expression
language of :mod:`enoc.expr` (variables ``t``, ``x1..xn``, ``u1..um`` and the
atom coordinates ``w1..wd``; grammar documented there), the optional
certificates ``dynamics.omega_modulus`` and ``cost.lipschitz`` in ``r``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import numbers
import operator
import os

import numpy as np

from .errors import CapacityError
from .expr import Expression
from .measure import ParameterSpace
from .problem import ControlSchedule, DynamicsSpec, ProblemSpec, TerminalCostSpec

PROBLEM_FORMAT = "enoc-problem/1"


def _uniform_space(M, coords=None, weights=None):
    if coords is None:
        coords = np.zeros((M, 1)) if M == 1 else np.linspace(0.0, 1.0, M)[:, None]
    else:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
    if weights is None:
        weights = np.full(M, 1.0 / M)
    return ParameterSpace(weights=weights, coords=coords)


def _control_grid(rho, m, levels):
    """Cartesian product of `levels` points per axis on [-rho, rho]^m."""
    axis = np.linspace(-rho, rho, levels)
    pts = np.array(list(itertools.product(axis, repeat=m)))
    box = np.array([[-rho, rho]] * m)
    return ControlSchedule.constant(pts, box)


def _coeff_lipschitz(values, metric):
    """Largest |v_i - v_j| / d(i, j) over atom pairs (0 for a single atom)."""
    M = len(values)
    best = 0.0
    for i in range(M):
        for j in range(i + 1, M):
            d = metric[i, j]
            if d > 0:
                best = max(best, abs(values[i] - values[j]) / d)
    return best


def _per_atom_vectors(val, M, n, name):
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        arr = np.full((M, n), float(arr))
    elif arr.ndim == 1:
        if arr.size == M and n == 1:
            arr = arr[:, None]
        elif arr.size == n:
            arr = np.tile(arr, (M, 1))
        else:
            raise ValueError(f"{name} must have {M} entries (n=1) or shape (M, {n})")
    if arr.shape != (M, n):
        raise ValueError(f"{name} must have shape ({M}, {n}), got {arr.shape}")
    return arr


def _rho_term(rho, scale):
    """rho * scale, a growth certificate's control term; ValueError naming
    ``rho`` when the product overflows though rho's span 2|rho| is finite."""
    with np.errstate(over="ignore"):
        term = rho * scale
    if not np.isfinite(term):
        raise ValueError(f"builtin parameter 'rho' must keep the growth certificate "
                         f"finite, got {rho!r} (times {float(scale):.6g})")
    return term


def linear_ensemble(M=2, n=1, a=None, c=None, weights=None, coords=None,
                    rho=1.0, levels=3, T=1.0, box_radius=5.0):
    """Scalar-gain linear family: xdot = a_i x + u, terminal cost c_i . x.

    The control set is a `levels`-per-axis grid on the box [-rho, rho]^n.
    The cost is affine in the control integral, which gives the closed-form
    optimum exported by :func:`closed_form`.
    """
    space = _uniform_space(M, coords, weights)
    M = space.size
    a = np.full(M, 0.0) if a is None and M == 1 else (
        np.linspace(-1.0, 1.0, M) if a is None else np.asarray(a, dtype=float))
    if a.shape != (M,):
        raise ValueError(f"a must have one gain per atom ({M}), got shape {a.shape}")
    cvec = _per_atom_vectors(1.0 if c is None else c, M, n, "c")

    a_col = a[:, None]
    eye = np.eye(n)

    def f_ens(t, X, u):
        return a_col * X + np.asarray(u, dtype=float)[..., None, :]

    def jac_x(t, X, u):
        return a[:, None, None] * eye

    def jac_u(t, X, u):
        return np.broadcast_to(eye, (M, n, n))

    def g_ens(X):
        return (X * cvec).sum(axis=-1)

    def g_grad(X):
        return np.broadcast_to(cvec, np.shape(X))

    amax = float(np.abs(a).max())
    growth_c = max(amax, _rho_term(rho, np.sqrt(n)))
    lipschitz_k = amax if amax > 0 else 1.0
    L_a = _coeff_lipschitz(a, space.metric)
    with np.errstate(over="ignore"):        # an infinite gain is a vacuous modulus
        gain = T * L_a * box_radius             # a zero gain stays 0, not 0 * inf
        osc_gain = gain * (1.0 + lipschitz_k * T * np.exp(lipschitz_k * T)) if gain else 0.0

    def theta(r):
        return osc_gain * r

    # g is linear: c.x + b|x|^2 >= -|c|^2 / (4b) with b = 1
    lb_a = -0.25 * (cvec * cvec).sum(axis=1)
    with np.errstate(over="ignore"):        # G's Lipschitz constant |c|_w; inf is vacuous
        cost_lip = float(np.sqrt((space.weights[:, None] * cvec * cvec).sum()))

    dyn = DynamicsSpec(eval_ens=f_ens, jac_x_ens=jac_x, jac_u_ens=jac_u,
                       growth_c=growth_c, lipschitz_k=lipschitz_k, omega_modulus=theta)
    cost = TerminalCostSpec(eval_ens=g_ens, grad_ens=g_grad, lower_bound_a=lb_a,
                            lower_bound_b=1.0, lipschitz=lambda r: cost_lip)
    meta = {"builtin": "linear-ensemble",
            "parameters": {"M": M, "n": n, "a": a.tolist(), "c": cvec.tolist(),
                           "weights": space.weights.tolist(),
                           "coords": space.coords.tolist(),
                           "rho": rho, "levels": levels, "T": T,
                           "box_radius": box_radius}}
    return ProblemSpec(space=space, n=n, m=n, dynamics=dyn, cost=cost,
                       controls=_control_grid(rho, n, levels), horizon=T, meta=meta)


def decoupled_quadratic(M=1, n=1, tau=None, weights=None, coords=None,
                        rho=1.0, levels=3, T=1.0):
    """Pure steering: xdot = u, terminal cost |x - tau_i|^2 per atom."""
    space = _uniform_space(M, coords, weights)
    M = space.size
    tau = _per_atom_vectors(0.0 if tau is None else tau, M, n, "tau")
    eye = np.eye(n)

    def f_ens(t, X, u):
        return np.broadcast_to(np.asarray(u, dtype=float)[..., None, :], np.shape(X))

    def jac_x(t, X, u):
        return np.zeros((M, n, n))

    def jac_u(t, X, u):
        return np.broadcast_to(eye, (M, n, n))

    def g_ens(X):
        d = X - tau
        return (d * d).sum(axis=-1)

    def g_grad(X):
        return 2.0 * (X - tau)

    # |grad g| <= 2(r + max_i |tau_i|) on the ball; hypot does not overflow
    tmax = float(np.hypot.reduce(tau, axis=1, initial=0.0).max())
    dyn = DynamicsSpec(eval_ens=f_ens, jac_x_ens=jac_x, jac_u_ens=jac_u,
                       growth_c=max(_rho_term(rho, np.sqrt(n)), 1e-6), lipschitz_k=1.0,
                       omega_modulus=lambda r: 0.0)
    cost = TerminalCostSpec(eval_ens=g_ens, grad_ens=g_grad,
                            lower_bound_a=np.zeros(M), lower_bound_b=0.0,
                            lipschitz=lambda r: 2.0 * (r + tmax) * float(np.sqrt(space.mass)))
    meta = {"builtin": "decoupled-quadratic",
            "parameters": {"M": M, "n": n, "tau": tau.tolist(),
                           "weights": space.weights.tolist(),
                           "coords": space.coords.tolist(),
                           "rho": rho, "levels": levels, "T": T}}
    return ProblemSpec(space=space, n=n, m=n, dynamics=dyn, cost=cost,
                       controls=_control_grid(rho, n, levels), horizon=T, meta=meta)


def bilinear(M=2, n=1, a=None, weights=None, coords=None,
             rho=1.0, levels=3, T=1.0, box_radius=5.0):
    """Gain-modulated family: xdot = u a_i x with scalar control, cost |x|^2."""
    space = _uniform_space(M, coords, weights)
    M = space.size
    a = np.linspace(0.5, 1.5, M) if a is None else np.asarray(a, dtype=float)
    if a.shape != (M,):
        raise ValueError(f"a must have one gain per atom ({M}), got shape {a.shape}")
    eye = np.eye(n)

    def f_ens(t, X, u):
        return np.asarray(u, dtype=float)[..., None, :1] * a[:, None] * X

    def jac_x(t, X, u):
        return float(np.asarray(u).reshape(-1)[0]) * a[:, None, None] * eye

    def jac_u(t, X, u):
        return (a[:, None] * X)[..., None]

    def g_ens(X):
        return (X * X).sum(axis=-1)

    def g_grad(X):
        return 2.0 * X

    amax = float(np.abs(a).max())
    cert = max(_rho_term(rho, amax), 1.0)
    L_a = _coeff_lipschitz(a, space.metric)
    with np.errstate(over="ignore"):        # an infinite gain is a vacuous modulus
        gain = T * rho * L_a * box_radius       # a zero gain stays 0, not 0 * inf
        osc_gain = gain * (1.0 + cert * T * np.exp(cert * T)) if gain else 0.0

    def theta(r):
        return osc_gain * r

    dyn = DynamicsSpec(eval_ens=f_ens, jac_x_ens=jac_x, jac_u_ens=jac_u,
                       growth_c=cert, lipschitz_k=cert, omega_modulus=theta)
    cost = TerminalCostSpec(eval_ens=g_ens, grad_ens=g_grad,
                            lower_bound_a=np.zeros(M), lower_bound_b=0.0,
                            # |grad g| = 2|x| <= 2r on the ball
                            lipschitz=lambda r: 2.0 * r * float(np.sqrt(space.mass)))
    meta = {"builtin": "bilinear",
            "parameters": {"M": M, "n": n, "a": a.tolist(),
                           "weights": space.weights.tolist(),
                           "coords": space.coords.tolist(),
                           "rho": rho, "levels": levels, "T": T,
                           "box_radius": box_radius}}
    return ProblemSpec(space=space, n=n, m=1, dynamics=dyn, cost=cost,
                       controls=_control_grid(rho, 1, levels), horizon=T, meta=meta)


_MAX_ENTRIES = 10 ** 6         # largest array a builtin may build

_BUILTINS = {
    "linear-ensemble": linear_ensemble,
    "decoupled-quadratic": decoupled_quadratic,
    "bilinear": bilinear,
}


def builtin(name, **parameters) -> ProblemSpec:
    """Build a library problem by name; unknown names raise ValueError."""
    factory = _BUILTINS.get(name) if isinstance(name, str) else None
    if factory is None:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown builtin problem {name!r}; known: {known}")
    accepted = inspect.signature(factory).parameters
    unknown = sorted(set(parameters) - set(accepted))
    if unknown:
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)} for builtin "
                         f"{name!r}; accepted: {', '.join(accepted)}")
    for key, val in parameters.items():
        _check_parameter(key, val, accepted[key].default)
    # an integer past int64 given for a float parameter would make numpy
    # build object arrays
    parameters = {key: float(val) if isinstance(accepted[key].default, float) else val
                  for key, val in parameters.items()}
    # the control grid spans [-rho, rho]: np.linspace overflows when 2|rho| does
    if not math.isfinite(2.0 * parameters.get("rho", 1.0)):
        raise ValueError(f"builtin parameter 'rho' must have a finite span 2|rho|, "
                         f"got {parameters['rho']!r}")
    M, n, levels = (parameters.get(key, accepted[key].default)
                    for key in ("M", "n", "levels"))
    # given weights or coords set the atom count (the factories take M from
    # them); the atom metric comes from M x M x width coordinate differences
    w_shape, c_shape = (np.shape(parameters.get(key)) for key in ("weights", "coords"))
    M = max([M, *w_shape[:1], *c_shape[:1]])
    width = int(np.prod(c_shape[1:]))
    # the atom metric, the (M, n, n) Jacobians and the levels^n x n control
    # grid; past n = 20 a grid of two levels or more is too large
    if levels > 1 and n > 20 or max(M * M * width, M * n * n,
                                    levels ** n * n) > _MAX_ENTRIES:
        raise CapacityError(f"builtin {name!r} with {M} atoms, n={n}, levels={levels} "
                            f"builds an array of more than {_MAX_ENTRIES} entries")
    return factory(**parameters)


def _check_parameter(key, val, default):
    """ValueError naming ``key`` unless ``val`` has the type its default
    implies: a positive integer, a finite number, or (default None) finite
    numbers in nested lists."""
    if isinstance(default, int):
        want = "a positive integer"
        ok = isinstance(val, numbers.Integral) and val >= 1
    else:
        want = ("a finite number" if isinstance(default, float)
                else "a number or a nested list of finite numbers")
        try:
            ok = bool(np.isfinite(np.asarray(val, dtype=float)).all())
        except (TypeError, ValueError, OverflowError):
            ok = False
        ok = ok and (default is None or isinstance(val, numbers.Real))
    if not ok or isinstance(val, bool):
        raise ValueError(f"builtin parameter {key!r} must be {want}, got {val!r:.60}")


class LinearEnsembleClosedForm:
    """Analytic optimum of the linear-ensemble family.

    The terminal cost is affine in the control through the weighted switching
    profile psi(sigma) = sum_i w_i c_i exp(a_i (T - sigma)); the pointwise
    minimizer over the box is -rho * sign(psi) and the optimal value is the
    affine free term minus rho times the integral of |psi|.
    """

    def __init__(self, p: ProblemSpec):
        if p.meta.get("builtin") != "linear-ensemble":
            raise ValueError("closed form is only available for linear-ensemble")
        par = p.meta["parameters"]
        self.a = np.asarray(par["a"], dtype=float)
        self.c = np.asarray(par["c"], dtype=float)
        self.w = p.space.weights
        self.rho = float(par["rho"])
        self.T = float(par["T"])
        self.n = int(par["n"])

    def psi(self, sigma):
        """Weighted switching profile, shape (n,)."""
        e = np.exp(self.a * (self.T - sigma))
        return (self.w[:, None] * self.c * e[:, None]).sum(axis=0)

    def optimal_value(self, s, phi) -> float:
        """Exact infimal cost from (s, phi) over measurable box controls."""
        e = np.exp(self.a * (self.T - s))
        affine = float((self.w[:, None] * self.c * e[:, None] * phi.values).sum())
        from scipy.integrate import quad
        mod, _ = quad(lambda sig: float(np.abs(self.psi(sig)).sum()), s, self.T,
                      limit=200)
        return affine - self.rho * mod


def closed_form(p: ProblemSpec) -> LinearEnsembleClosedForm:
    """Closed-form reference for problems that export one."""
    return LinearEnsembleClosedForm(p)


# -- problem files ---------------------------------------------------------

_REQUIRED = object()


def _get(doc, path, convert, default=_REQUIRED):
    """``convert(doc[a][b]...)`` for the dotted key ``path`` (or ``default``
    if given and the last key is absent); any failure is a ValueError naming
    the key."""
    try:
        *parents, last = path.split(".")
        for key in parents:
            doc = doc[key]
        return convert(doc[last] if default is _REQUIRED or last in doc else default)
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"problem key {path!r}: {detail}") from None


def _radius_function(doc, path):
    """The optional expression in ``r`` at ``path`` as a function, or None."""
    expr = _get(doc, path, lambda src: None if src is None else Expression(src, ["r"]),
                None)
    return None if expr is None else lambda r: float(expr(r=r))


def _list(val):
    if not isinstance(val, list):
        raise TypeError(f"expected a JSON list, got {val!r:.60}")
    return val


def problem_from_dict(doc, base_dir=".") -> ProblemSpec:
    """Build a problem from an ``enoc-problem/1`` document; ValueError names a bad key."""
    if not isinstance(doc, dict):
        raise ValueError(f"a problem document must be a JSON object, got {doc!r:.60}")
    if doc.get("format") != PROBLEM_FORMAT:
        raise ValueError(
            f"unsupported problem format {doc.get('format')!r}, expected {PROBLEM_FORMAT!r}"
        )
    if "builtin" in doc:
        params = doc.get("parameters", {})
        if not isinstance(params, dict):
            raise ValueError(f"problem key 'parameters' must be a JSON object, "
                             f"got {params!r:.60}")
        return builtin(doc["builtin"], **params)
    return _expression_problem(doc, base_dir)


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        doc = json.load(fh)
    return problem_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def _expression_problem(doc, base_dir) -> ProblemSpec:
    space = _get(doc, "space", lambda ref: (
        ParameterSpace.load(os.path.join(base_dir, ref)) if isinstance(ref, str)
        else ParameterSpace.from_dict(ref)))
    n = _get(doc, "n", operator.index)
    sets = _get(doc, "controls.sets", _list)
    controls = _get(doc, "controls", lambda ctl: ControlSchedule(
        ctl["breakpoints"], sets, ctl.get("box")))
    m = _get(doc, "m", operator.index)
    if m != controls.m:
        raise ValueError(f"problem key 'm': {m} != control set dimension {controls.m}")
    T = _get(doc, "horizon", float)
    d = 0 if space.coords is None else space.coords.shape[1]

    def compile_dynamics(sources):
        # the count is checked before the x1..xn names are built
        if len(_list(sources)) != n:
            raise ValueError(f"need {n} dynamics expressions, got {len(sources)}")
        variables = (["t"] + [f"x{k+1}" for k in range(n)]
                     + [f"u{k+1}" for k in range(m)] + [f"w{k+1}" for k in range(d)])
        return [Expression(src, variables) for src in sources]

    exprs = _get(doc, "dynamics.expressions", compile_dynamics)
    coords = space.coords if d else np.zeros((space.size, 0))
    # the variable names and the atoms' coordinate columns, built once
    x_names = [f"x{k+1}" for k in range(n)]
    u_names = [f"u{k+1}" for k in range(m)]
    w_columns = {f"w{k+1}": coords[:, k] for k in range(d)}

    def env_for(X):
        X = np.asarray(X, dtype=float)
        env = {name: X[..., k] for k, name in enumerate(x_names)}
        env.update(w_columns)
        return env

    def f_ens(t, X, u):
        # t and u carry the batch dims of X without the atom axis; the
        # trailing axis lets them broadcast against the (..., M) state columns
        env = env_for(X)
        env["t"] = t if np.ndim(t) == 0 else np.asarray(t)[..., None]
        uu = np.asarray(u, dtype=float)
        env.update({name: uu[..., k, None] for k, name in enumerate(u_names)})
        # each component broadcasts over X's lead shape as it is assigned
        out = np.empty(np.shape(X))
        for k, e in enumerate(exprs):
            out[..., k] = e(**env)
        return out

    dyn = DynamicsSpec(eval_ens=f_ens,
                       growth_c=_get(doc, "dynamics.growth_c", float),
                       lipschitz_k=_get(doc, "dynamics.lipschitz_k", float),
                       omega_modulus=_radius_function(doc, "dynamics.omega_modulus"))

    cost_vars = ([f"x{k+1}" for k in range(n)] + [f"w{k+1}" for k in range(d)])
    gexpr = _get(doc, "cost.expression", lambda src: Expression(src, cost_vars))

    def g_ens(X):
        return np.broadcast_to(gexpr(**env_for(X)), np.shape(X)[:-1]).astype(float)

    lb_a = _get(doc, "cost.lower_bound_a", lambda v: (
        np.full(space.size, float(v)) if np.isscalar(v) else np.asarray(v, dtype=float)),
        0.0)
    cost = TerminalCostSpec(eval_ens=g_ens, lower_bound_a=lb_a,
                            lower_bound_b=_get(doc, "cost.lower_bound_b", float, 0.0),
                            lipschitz=_radius_function(doc, "cost.lipschitz"))
    meta = {"doc": doc}
    return ProblemSpec(space=space, n=n, m=m, dynamics=dyn, cost=cost,
                       controls=controls, horizon=T, meta=meta)
