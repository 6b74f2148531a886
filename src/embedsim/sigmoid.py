"""The sigmoid-MLE pooling demonstrator, the package's only numpy user.

Gradient ascent on a seeded start, deterministic per (seed, iterations);
diagnostic only, it never feeds an exact verdict.  One kernel steps a
whole batch of problems at once, so the conical diagnostics run all
their optimisations as one batched ascent.  `table1` imports this module
inside `run_table1`, so no other command loads numpy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .strategies import AttributeEmbedding


def _unique(atoms: Iterable[str]) -> tuple[str, ...]:
    # duplicate attributes collapse to a set before pooling
    return tuple(dict.fromkeys(atoms))


def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(t))


def sig_objective(e: np.ndarray, vectors: np.ndarray,
                  kappa: float) -> float | np.ndarray:
    """Sum of log-sigmoid scores minus the quadratic penalty.

    The quadratic term must act as a penalty; otherwise the objective
    grows without bound and no maximiser exists.  `vectors` is (..., k, d)
    and `e` is (..., d): one problem gives a float, a batch of problems
    an array over the leading axes.
    """
    scores = np.einsum("...kd,...d->...k", vectors, e)
    value = (np.sum(_log_sigmoid(scores), axis=-1)
             - kappa * np.einsum("...d,...d->...", e, e))
    return float(value) if np.ndim(value) == 0 else value


def sig_gradient(e: np.ndarray, vectors: np.ndarray,
                 kappa: float) -> np.ndarray:
    """Gradient of `sig_objective` in e, with the same batch axes as e."""
    scores = np.einsum("...kd,...d->...k", vectors, e)
    weights = _sigmoid(-scores)
    return np.einsum("...k,...kd->...d", weights, vectors) - 2.0 * kappa * e


def _check_ascent(kappa: float, iterations: int, seed: int) -> None:
    """Refuse what neither ascent entry point can run: kappa must be
    positive and finite, iterations an int (not a bool) >= 0, and the
    seed >= 0, as numpy's generators take no negative seed."""
    if not 0 < kappa < float("inf"):
        raise ValueError("kappa must be positive and finite")
    if (isinstance(iterations, bool) or not isinstance(iterations, int)
            or iterations < 0):
        raise ValueError("iterations must be a non-negative integer")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _sig_ascent(vectors: np.ndarray, starts: np.ndarray, kappa: float,
                iterations: int) -> np.ndarray:
    """Gradient ascent on a batch of sigmoid problems, stepped together.

    `vectors` is (B, k, d) and `starts` is (B, d).  Each problem steps
    below 1/L for its own smoothness bound L <= sum ||a||^2 / 4 + 2 kappa,
    so problems with fewer attributes may be padded with zero rows: a
    zero row adds exactly 0.0 to the gradient and nothing to the bound.
    Raises ArithmeticError if any problem ends non-finite.

    Returns exactly the state after `iterations` steps, but rarely takes
    them all.  The vectors, step sizes and kappa are fixed, so a step is
    a pure function of the state's bits: once a state repeats, the rest
    of the run goes round that cycle, and the state after the remaining
    steps is the one (remaining % period) steps on.  Repeats are found by
    Brent's scheme: each state's bytes are compared with one saved mark,
    which moves to the current state whenever the distance since its
    last move reaches a power of two.  That keeps O(1) extra memory, no
    table of seen states, and finds a cycle within a few times the steps
    taken to enter it plus its period.  On the table's batches (seeds
    0-63) the iterate cycles within 51 steps, with periods of 2 to 30,
    so at most 120 of the 3000 steps are taken.  A search longer than
    `MAX_ASCENT_WORK` / max(coordinates, `MAX_DIAGNOSTIC_SIZE`) steps
    raises ValueError.
    """
    step = 1.0 / (np.sum(vectors * vectors, axis=(-2, -1)) / 4.0
                  + 2.0 * kappa + 1.0)
    step = step[..., None]
    e = starts
    limit = MAX_ASCENT_WORK // max(starts.size, MAX_DIAGNOSTIC_SIZE)
    mark, since, power = e.tobytes(), 0, 1
    for done in range(1, iterations + 1):
        if done > limit:
            raise ValueError(f"the sigmoid ascent repeated no state within "
                             f"{limit} steps of {starts.size} coordinates; "
                             f"raise kappa or lower iterations")
        e = e + step * sig_gradient(e, vectors, kappa)
        since += 1
        key = e.tobytes()
        if key == mark:  # `since` steps bring this state back to itself
            for _ in range((iterations - done) % since):
                e = e + step * sig_gradient(e, vectors, kappa)
            break
        if since == power:
            mark, since, power = key, 0, 2 * power
    if not (np.all(np.isfinite(e))
            and np.all(np.isfinite(sig_objective(e, vectors, kappa)))):
        raise ArithmeticError("sigmoid objective became non-finite")
    return e


def _sig_start(seed: int, dimension: int) -> np.ndarray:
    return 0.1 * np.random.default_rng(seed).standard_normal(dimension)


def emb_sig_numeric(emb: AttributeEmbedding, atoms: Iterable[str],
                    kappa: float = 1.0, iterations: int = 2000,
                    seed: int = 0) -> np.ndarray:
    """Gradient-ascent maximiser of the sigmoid likelihood with L2 penalty.

    Deterministic for a given (seed, iterations) pair; ties between
    maximisers are therefore resolved reproducibly rather than
    canonically.  Diagnostic use only.
    """
    _check_ascent(kappa, iterations, seed)
    names = _unique(atoms)
    if not names:
        raise ValueError("sigmoid pooling needs a non-empty attribute set")
    vectors = np.array([[float(x) for x in emb.context[a]] for a in names])
    start = _sig_start(seed, vectors.shape[1])
    return _sig_ascent(vectors[None], start[None], kappa, iterations)[0]


def angular_error(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between u and v in radians; nan when either is zero.

    Kahan's 2 atan2(|u/|u| - v/|v||, |u/|u| + v/|v||) stays accurate
    near 0 and pi, where the cosine is flat, and needs O(d) memory.
    """
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return float("nan")
    a, b = u / nu, v / nv
    return float(2 * np.arctan2(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def cone_residual(target: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Distance from target to the conical hull of u and v."""
    best = float(np.linalg.norm(target))  # origin is in every cone
    gram = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    rhs = np.array([u @ target, v @ target])
    try:
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coeffs = None
    if coeffs is not None and coeffs[0] >= 0 and coeffs[1] >= 0:
        best = min(best, float(np.linalg.norm(target - coeffs[0] * u - coeffs[1] * v)))
    for ray in (u, v):
        denom = float(ray @ ray)
        if denom > 0:
            alpha = max(0.0, float(ray @ target) / denom)
            best = min(best, float(np.linalg.norm(target - alpha * ray)))
    return best


# Budget of the diagnostics, checked on the arguments before anything is
# allocated.  A step of the ascent costs about trials x dimension plus a
# per-trial overhead, and a call takes at most `iterations` steps (3,000
# by default), fewer once its iterate cycles.  Calls at the limit that
# took all 3,000 steps (kappa 0.01) ran in at most 0.69 s at a 37 MB
# peak (2-vCPU VM, fresh process: 250 trials at d = 16, 0.69 s; 128 at
# d = 32, 0.64 s; 4 at d = 1,000, 0.49 s).  Trials are bounded at 250
# because 1,000 trials at d = 4 took 1.56 s at the default kappa
# (seed 3, all 3,000 steps).
MAX_DIAGNOSTIC_DIMENSION = 1000
MAX_DIAGNOSTIC_TRIALS = 250
MAX_DIAGNOSTIC_SIZE = 4096  # trials x dimension
# Steps x coordinates (batch x dimension) an ascent may search for a
# repeated state: 3,000 steps of the largest batch admitted above.  A
# step costs mostly its fixed overhead on a small batch, so a batch of
# fewer than MAX_DIAGNOSTIC_SIZE coordinates is charged that many per
# step and refused after 9,000 steps (0.13 s at the default diagnostics
# shape, 60 coordinates, on the 2-vCPU VM).
MAX_ASCENT_WORK = 3000 * 3 * MAX_DIAGNOSTIC_SIZE


def sig_conical_diagnostics(dimension: int = 4, trials: int = 5,
                            kappa: float = 1.0, iterations: int = 3000,
                            seed: int = 0) -> dict:
    """Numeric corroboration that pooled pairs sit in the singleton cone.

    For random attribute pairs (a, b), antipodal ones included, the
    singleton optimum is checked to align with the attribute vector and
    the pair optimum to lie in the conical hull of the two singleton
    optima.  The 3 * trials optimisations (a, b and {a, b} per trial,
    each seeded with seed + 3 t + j) run as one batched ascent, the
    singletons padded with a zero row.  Returns JSON-ready floats,
    deterministic per seed.  The results are bit-identical to taking all
    `iterations` steps; the cost is set by when the iterate starts to
    cycle, not by `iterations`, within a budget (see `_sig_ascent`).
    """
    if not 1 <= dimension <= MAX_DIAGNOSTIC_DIMENSION:
        raise ValueError(f"dimension must be between 1 and "
                         f"{MAX_DIAGNOSTIC_DIMENSION}")
    if not 1 <= trials <= MAX_DIAGNOSTIC_TRIALS:
        raise ValueError(f"trials must be between 1 and "
                         f"{MAX_DIAGNOSTIC_TRIALS}")
    if trials * dimension > MAX_DIAGNOSTIC_SIZE:
        raise ValueError(f"trials x dimension must be at most "
                         f"{MAX_DIAGNOSTIC_SIZE}, got {trials * dimension}")
    _check_ascent(kappa, iterations, seed)
    rng = np.random.default_rng(seed)
    pairs, problems = [], []
    zero = np.zeros(dimension)
    for _ in range(trials):
        a = rng.standard_normal(dimension)
        b = rng.standard_normal(dimension)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        pairs.append((a, b))
        # rounded as an embedding of a and b holds them, so each optimum is
        # the one emb_sig_numeric finds on that embedding
        va, vb = (np.array([float(Fraction(x).limit_denominator(10**6))
                            for x in v]) for v in (a, b))
        problems += [(va, zero), (vb, zero), (va, vb)]
    starts = np.array([_sig_start(seed + i, dimension)
                       for i in range(len(problems))])
    optima = _sig_ascent(np.array(problems), starts, kappa, iterations)
    rows = []
    for t, (a, b) in enumerate(pairs):
        y_a, y_b, y_ab = optima[3 * t:3 * t + 3]
        rows.append({
            "cos_ab": round(float(a @ b), 12),
            "singleton_angle_a": round(angular_error(y_a, a), 12),
            "singleton_angle_b": round(angular_error(y_b, b), 12),
            "pair_cone_residual": round(cone_residual(y_ab, y_a, y_b), 12),
        })
    return {"kappa": kappa, "iterations": iterations, "seed": seed,
            "trials": rows}
