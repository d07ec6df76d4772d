"""The Pollux system-throughput model (Sec. 3.2 of the paper).

THROUGHPUT(a, m) = m / T_iter(a, m)                       (Eqn. 8)
T_grad(a, m)     = alpha_grad + beta_grad * m / K          (Eqn. 9)
T_sync(a)        = 0                          if K == 1    (Eqn. 10)
                 = a_loc + b_loc * (K - 2)    if N == 1, K >= 2
                 = a_node + b_node * (K - 2)  otherwise
T_iter(a, m)     = (T_grad^gamma + T_sync^gamma)^(1/gamma) (Eqn. 11)

where K is the total number of allocated GPUs and N the number of physical
nodes hosting at least one replica.  The seven learnable parameters form
theta_sys (Eqn. 12) and are fit online by minimizing the root mean squared
*logarithmic* error (RMSLE) against observed (placement, batch size, T_iter)
triples using L-BFGS-B, with alpha/beta >= 0 and gamma in [1, 10] (Sec. 4.1).

Heterogeneous GPU types are handled by a relative compute ``speed`` (Gavel's
throughput-ratio abstraction): a device with speed s computes T_grad s times
faster than the reference device, while T_sync (network-bound) is
unaffected.  All evaluation methods accept a ``speed`` argument, profile
observations carry the speed of the device they were measured on, and the
fit divides the predicted T_grad by each observation's speed — so theta_sys
is always expressed in *reference-device* units and a profile measured on
one GPU type projects onto any other type (cf. adaptdl's
``project_throughputs`` / ``gput_ratios``).  ``speed=1.0`` everywhere
reproduces the seed's homogeneous model bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import _lbfgsb

__all__ = [
    "ThroughputParams",
    "ThroughputModel",
    "ProfileEntry",
    "ExplorationState",
    "fit_throughput_params",
    "project_throughput_params",
    "t_iter_scalar",
    "throughput_scalar",
    "GAMMA_MIN",
    "GAMMA_MAX",
]

GAMMA_MIN = 1.0
GAMMA_MAX = 10.0

#: Order of the parameters inside the optimization vector.
_PARAM_NAMES = (
    "alpha_grad",
    "beta_grad",
    "alpha_sync_local",
    "beta_sync_local",
    "alpha_sync_node",
    "beta_sync_node",
    "gamma",
)


@dataclass(frozen=True)
class ThroughputParams:
    """The 7-tuple theta_sys of Eqn. 12.

    All times are in seconds.  ``alpha_grad``/``beta_grad`` describe the
    per-iteration gradient computation (constant overhead + per-local-sample
    cost).  The sync parameters describe the constant and per-extra-replica
    retrogression cost of gradient synchronization, with separate values for
    co-located (single physical node) and cross-node placements.  ``gamma``
    controls the overlap between computation and communication: gamma = 1
    means no overlap (sum), gamma -> inf means perfect overlap (max).
    """

    alpha_grad: float
    beta_grad: float
    alpha_sync_local: float
    beta_sync_local: float
    alpha_sync_node: float
    beta_sync_node: float
    gamma: float

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES[:-1]:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if not (GAMMA_MIN <= self.gamma <= GAMMA_MAX):
            raise ValueError(
                f"gamma must be in [{GAMMA_MIN}, {GAMMA_MAX}], got {self.gamma}"
            )

    def as_vector(self) -> np.ndarray:
        """Return the parameters as a 7-vector in canonical order."""
        return np.array([getattr(self, n) for n in _PARAM_NAMES], dtype=float)

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "ThroughputParams":
        """Build params from a 7-vector in canonical order."""
        if len(vec) != len(_PARAM_NAMES):
            raise ValueError(f"expected {len(_PARAM_NAMES)} values, got {len(vec)}")
        return cls(**dict(zip(_PARAM_NAMES, (float(v) for v in vec))))

    def replace(self, **kwargs: float) -> "ThroughputParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ProfileEntry:
    """One observed (placement, batch size, iteration time) triple.

    ``speed`` is the relative compute speed of the GPU type the observation
    was measured on (1.0 = reference device); the fit uses it to normalize
    theta_sys to reference-device units.
    """

    num_nodes: int
    num_gpus: int
    batch_size: float
    t_iter: float
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.num_nodes < 1 or self.num_nodes > self.num_gpus:
            raise ValueError(
                f"num_nodes must be in [1, num_gpus], got "
                f"{self.num_nodes} with num_gpus={self.num_gpus}"
            )
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.t_iter <= 0:
            raise ValueError("t_iter must be positive")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


@dataclass
class ExplorationState:
    """Which resource regimes a job has explored so far (Sec. 4.1 priors).

    Until a regime is observed, the corresponding theta_sys components are
    pinned to zero so the model optimistically assumes perfect scaling, which
    encourages PolluxSched to explore larger allocations.
    """

    seen_multi_gpu: bool = False
    seen_multi_node: bool = False
    seen_more_than_two_gpus: bool = False

    def observe(self, num_nodes: int, num_gpus: int) -> None:
        """Record that a placement with the given shape was used."""
        if num_gpus > 1:
            self.seen_multi_gpu = True
        if num_nodes > 1:
            self.seen_multi_node = True
        if num_gpus > 2:
            self.seen_more_than_two_gpus = True

    def pinned_params(self) -> Tuple[str, ...]:
        """Names of theta_sys components currently pinned to zero.

        Following Sec. 4.1: alpha_sync_local = 0 while the job has not used
        more than one GPU; alpha_sync_node (and local) = 0 while it has not
        used more than one node; the beta retrogression terms = 0 while it has
        not used more than two GPUs.
        """
        pinned: List[str] = []
        if not self.seen_multi_gpu:
            pinned.append("alpha_sync_local")
        if not self.seen_multi_node:
            pinned.append("alpha_sync_node")
        if not self.seen_more_than_two_gpus:
            pinned.append("beta_sync_local")
            pinned.append("beta_sync_node")
        return tuple(pinned)


class ThroughputModel:
    """Evaluates the throughput model for a given theta_sys.

    All evaluation methods accept scalars or numpy arrays (broadcast
    together), returning arrays of the broadcast shape.
    """

    def __init__(self, params: ThroughputParams):
        self.params = params

    def t_grad(self, num_gpus, batch_size, speed=1.0):
        """Time per iteration spent computing local gradients (Eqn. 9).

        ``speed`` is the allocated GPU type's relative compute speed; a
        device s times faster computes gradients in 1/s of the reference
        time.
        """
        p = self.params
        num_gpus = np.asarray(num_gpus, dtype=float)
        batch_size = np.asarray(batch_size, dtype=float)
        speed = np.asarray(speed, dtype=float)
        return (p.alpha_grad + p.beta_grad * batch_size / num_gpus) / speed

    def t_sync(self, num_nodes, num_gpus):
        """Time per iteration spent synchronizing gradients (Eqn. 10)."""
        p = self.params
        num_nodes = np.asarray(num_nodes, dtype=float)
        num_gpus = np.asarray(num_gpus, dtype=float)
        num_nodes, num_gpus = np.broadcast_arrays(num_nodes, num_gpus)
        extra = np.maximum(num_gpus - 2.0, 0.0)
        local = p.alpha_sync_local + p.beta_sync_local * extra
        remote = p.alpha_sync_node + p.beta_sync_node * extra
        out = np.where(num_nodes <= 1, local, remote)
        return np.where(num_gpus <= 1, 0.0, out)

    def t_iter(self, num_nodes, num_gpus, batch_size, speed=1.0):
        """Total time per training iteration (Eqn. 11)."""
        gamma = self.params.gamma
        tg = np.asarray(self.t_grad(num_gpus, batch_size, speed), dtype=float)
        ts = np.asarray(self.t_sync(num_nodes, num_gpus), dtype=float)
        tg, ts = np.broadcast_arrays(tg, ts)
        # (tg^g + ts^g)^(1/g), computed stably by factoring out the max term.
        hi = np.maximum(tg, ts)
        lo = np.minimum(tg, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
        return hi * np.power(1.0 + np.power(ratio, gamma), 1.0 / gamma)

    def throughput(self, num_nodes, num_gpus, batch_size, speed=1.0):
        """Training samples processed per second (Eqn. 8)."""
        batch_size = np.asarray(batch_size, dtype=float)
        return batch_size / self.t_iter(num_nodes, num_gpus, batch_size, speed)


@dataclass
class _FitData:
    """Precomputed observation arrays shared by every RMSLE evaluation.

    ``single_node``/``single_gpu`` are the boolean masks that Eqn. 10
    branches on; hoisting them (and the retrogression term ``extra``) out
    of the objective keeps per-evaluation work to the parameter-dependent
    arithmetic only, with the exact same floating-point operation order as
    the original formulation.
    """

    nodes: np.ndarray
    gpus: np.ndarray
    batch: np.ndarray
    speeds: np.ndarray
    t_obs_log: np.ndarray
    extra: np.ndarray
    single_node: np.ndarray
    single_gpu: np.ndarray

    @classmethod
    def build(
        cls,
        nodes: np.ndarray,
        gpus: np.ndarray,
        batch: np.ndarray,
        speeds: np.ndarray,
        t_obs_log: np.ndarray,
    ) -> "_FitData":
        return cls(
            nodes=nodes,
            gpus=gpus,
            batch=batch,
            speeds=speeds,
            t_obs_log=t_obs_log,
            extra=np.maximum(gpus - 2.0, 0.0),
            single_node=nodes <= 1,
            single_gpu=gpus <= 1,
        )


def t_iter_scalar(
    params: ThroughputParams,
    num_nodes: int,
    num_gpus: int,
    batch_size: float,
    speed: float = 1.0,
) -> float:
    """Scalar fast path for :meth:`ThroughputModel.t_iter` (Eqn. 11).

    Bit-identical to the array implementation for scalar inputs: the
    arithmetic (+, -, *, /, max) is IEEE-exact in either form, and the two
    ``pow`` evaluations go through the same numpy ufunc the array loop uses
    (``float ** float`` and ``math.pow`` round differently in ~5% of cases,
    so they must not be substituted here).  Used on hot per-job paths —
    golden-section batch-size search and the simulator's ground-truth
    goodput — where the array version's broadcasting overhead dominates.
    """
    t_grad = (params.alpha_grad + params.beta_grad * batch_size / num_gpus) / speed
    if num_gpus <= 1:
        t_sync = 0.0
    else:
        extra = max(num_gpus - 2.0, 0.0)
        if num_nodes <= 1:
            t_sync = params.alpha_sync_local + params.beta_sync_local * extra
        else:
            t_sync = params.alpha_sync_node + params.beta_sync_node * extra
    if t_grad >= t_sync:
        hi, lo = t_grad, t_sync
    else:
        hi, lo = t_sync, t_grad
    ratio = lo / hi if hi > 0 else 0.0
    gamma = params.gamma
    return float(hi * np.power(1.0 + np.power(ratio, gamma), 1.0 / gamma))


def throughput_scalar(
    params: ThroughputParams,
    num_nodes: int,
    num_gpus: int,
    batch_size: float,
    speed: float = 1.0,
) -> float:
    """Scalar fast path for :meth:`ThroughputModel.throughput` (Eqn. 8)."""
    return batch_size / t_iter_scalar(params, num_nodes, num_gpus, batch_size, speed)


def _clip_gamma(g: float) -> float:
    """Clamp gamma into [GAMMA_MIN, GAMMA_MAX] as a python float."""
    return GAMMA_MAX if g > GAMMA_MAX else (GAMMA_MIN if g < GAMMA_MIN else float(g))


def _rmsle_full(full: np.ndarray, data: _FitData) -> float:
    """RMSLE of one complete 7-vector against the observations.

    Identical arithmetic (same operations, same order) to the original
    per-call formulation; the observation-dependent pieces come
    precomputed via ``data``.
    """
    av = np.abs(full[:6])
    ag, bg, asl, bsl, asn, bsn = av
    gamma = _clip_gamma(full[6])
    t_grad = (ag + bg * data.batch / data.gpus) / data.speeds
    t_sync = np.where(data.single_node, asl + bsl * data.extra, asn + bsn * data.extra)
    t_sync = np.where(data.single_gpu, 0.0, t_sync)
    hi = np.maximum(t_grad, t_sync)
    lo = np.minimum(t_grad, t_sync)
    safe_hi = np.where(hi > 0, hi, 1.0)
    ratio = np.where(hi > 0, lo / safe_hi, 0.0)
    pred = hi * np.power(1.0 + np.power(ratio, gamma), 1.0 / gamma)
    err = np.log(np.maximum(pred, 1e-12)) - data.t_obs_log
    # add.reduce is np.mean's own pairwise summation without the dispatch
    # overhead; dividing by the count afterwards is the same operation
    # np.mean performs, so the value is bit-identical.
    return float(np.sqrt(np.add.reduce(err * err) / err.size))


#: Absolute finite-difference step L-BFGS-B passes to its internal 2-point
#: differences (the legacy ``eps`` option), and the relative fallback step
#: (sqrt(machine eps)) scipy substitutes where the absolute step vanishes.
_FD_ABS_STEP = 1e-8
_FD_RSTEP = float(np.sqrt(np.finfo(np.float64).eps))

#: The solver settings of ``minimize(method="L-BFGS-B",
#: options={"maxiter": 60})``: scipy's defaults for the history size,
#: ``ftol`` (as ``factr = ftol / eps``), ``gtol`` and line-search steps.
_LBFGSB_MAXCOR = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_FIT_MAXITER = 60

#: L-BFGS-B ``task`` codes: evaluate f and g at x, new iterate, stop, and
#: the stop reason scipy records when ``maxiter`` is reached.
_TASK_FG = 3
_TASK_NEW_X = 1
_TASK_STOP = 5
_TASK_STOP_MAXITER = 504


def _rmsle_steps(
    x: np.ndarray, stepped: np.ndarray, free_idx: np.ndarray, data: _FitData
) -> np.ndarray:
    """RMSLE at each point and at every single-coordinate step from it.

    ``x`` and ``stepped`` are ``(S, n)`` free-parameter vectors with gamma
    last.  Returns ``(S, n + 1)``: column 0 is the loss at ``x[s]`` and
    column ``1 + i`` the loss at ``x[s]`` with coordinate ``i`` replaced by
    ``stepped[s, i]`` — the points of a forward-difference gradient.
    Parameters outside ``free_idx`` (the pinned ones) are zero.  Every
    entry equals :func:`_rmsle_full` of the corresponding full vector bit
    for bit (asserted by ``tests/test_perf_paths.py``): numpy's elementwise
    ufuncs and its per-row pairwise sum over a contiguous 2-D array match
    the 1-D evaluation, so the ``S * n`` points that share their start's
    gamma are evaluated as rows of one array pass.

    The gamma-stepped point has the same ``hi``/``ratio`` as ``x`` and
    differs only in its two ``np.power`` calls.  Those, like every row's
    ``np.power`` calls, run once per start with a scalar exponent: an
    *array* exponent takes a different kernel that rounds differently by
    1 ulp on rare inputs.
    """
    num_starts, n = x.shape
    nongamma = free_idx[:-1]
    k = nongamma.size
    rows = num_starts * n
    # Row 0 of each start is x itself; row 1 + i steps coordinate i.
    full = np.zeros((num_starts, n, 6))
    full[:, :, nongamma] = x[:, None, :k]
    full[:, 1 + np.arange(k), nongamma] = stepped[:, :k]
    av = np.abs(full.reshape(rows, 6))
    ag = av[:, 0:1]
    bg = av[:, 1:2]
    asl = av[:, 2:3]
    bsl = av[:, 3:4]
    asn = av[:, 4:5]
    bsn = av[:, 5:6]
    t_grad = (ag + bg * data.batch / data.gpus) / data.speeds
    t_sync = np.where(data.single_node, asl + bsl * data.extra, asn + bsn * data.extra)
    t_sync = np.where(data.single_gpu, 0.0, t_sync)
    hi = np.maximum(t_grad, t_sync)
    lo = np.minimum(t_grad, t_sync)
    safe_hi = np.where(hi > 0, hi, 1.0)
    ratio = np.where(hi > 0, lo / safe_hi, 0.0)
    # Rows [0, rows) are the points above; row rows + s is start s's
    # gamma step, which reuses row s * n's hi and ratio.
    pred = np.empty((rows + num_starts, data.batch.size))
    gammas = x[:, -1].tolist()
    gamma_steps = stepped[:, -1].tolist()
    for s in range(num_starts):
        block = slice(s * n, (s + 1) * n)
        g = _clip_gamma(gammas[s])
        np.power(1.0 + np.power(ratio[block], g), 1.0 / g, out=pred[block])
        g = _clip_gamma(gamma_steps[s])
        np.power(1.0 + np.power(ratio[s * n], g), 1.0 / g, out=pred[rows + s])
    pred[:rows] *= hi
    pred[rows:] *= hi[::n]
    err = np.log(np.maximum(pred, 1e-12)) - data.t_obs_log
    sq = err * err
    loss = np.sqrt(np.add.reduce(sq, axis=1) / sq.shape[1])
    out = np.empty((num_starts, n + 1))
    out[:, :n] = loss[:rows].reshape(num_starts, n)
    out[:, n] = loss[rows:]
    return out


def _fd_steps(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Forward-difference step points of L-BFGS-B's ``jac=None`` gradient.

    scipy's rule, elementwise over ``(S, n)`` points: the absolute step
    ``eps=1e-8``, falling back to ``sqrt(eps) * sign * max(1, |x|)``
    (sign +1 at 0) where the absolute step is indistinguishable from x,
    then flipped or clamped where the one-sided step would leave the
    bounds.  Returns ``x + h``.
    """
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where(
        (x + _FD_ABS_STEP) - x == 0,
        _FD_RSTEP * sign * np.maximum(1.0, np.abs(x)),
        _FD_ABS_STEP,
    )
    lower_dist = x - lb
    upper_dist = ub - x
    stepped = x + h
    h = np.where((stepped < lb) | (stepped > ub), -h, h)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    clamped = np.where(upper_dist >= lower_dist, upper_dist, -lower_dist)
    h = np.where(fitting, h, clamped)
    return x + h


class _LbfgsbStart:
    """One start's L-BFGS-B state, driven exactly as scipy's own loop.

    Mirrors ``scipy.optimize._lbfgsb_py._minimize_lbfgsb``: the same
    workspaces passed to the same C ``setulb``, the same iteration count
    and ``maxiter`` stop.  scipy's ``maxfun`` check is omitted because it
    cannot fire: 60 iterations of at most 20 line-search steps stay below
    its 15000 limit.
    """

    def __init__(
        self, x0: np.ndarray, low: np.ndarray, upper: np.ndarray, nbd: np.ndarray
    ):
        n = x0.size
        m = _LBFGSB_MAXCOR
        self.x = np.array(x0, dtype=np.float64)
        self.f = 0.0
        self.g = np.zeros(n)
        self.nit = 0
        self._wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self._iwa = np.zeros(3 * n, dtype=np.int32)
        self._task = np.zeros(2, dtype=np.int32)
        self._ln_task = np.zeros(2, dtype=np.int32)
        self._lsave = np.zeros(4, dtype=np.int32)
        self._isave = np.zeros(44, dtype=np.int32)
        self._dsave = np.zeros(29)
        self._bounds = (low, upper, nbd)

    def advance(self) -> bool:
        """Step until the solver asks for f and g at ``x`` (True) or stops."""
        task = self._task
        low, upper, nbd = self._bounds
        while True:
            _lbfgsb.setulb(
                _LBFGSB_MAXCOR,
                self.x,
                low,
                upper,
                nbd,
                self.f,
                self.g,
                _LBFGSB_FACTR,
                _LBFGSB_PGTOL,
                self._wa,
                self._iwa,
                task,
                self._lsave,
                self._isave,
                self._dsave,
                _LBFGSB_MAXLS,
                self._ln_task,
            )
            if task[0] == _TASK_FG:
                return True
            if task[0] != _TASK_NEW_X:
                return False
            self.nit += 1
            if self.nit >= _FIT_MAXITER:
                task[0] = _TASK_STOP
                task[1] = _TASK_STOP_MAXITER


def _lbfgsb_lockstep(
    starts: Sequence[np.ndarray],
    lb: np.ndarray,
    ub: np.ndarray,
    free_idx: np.ndarray,
    data: _FitData,
) -> List[Tuple[np.ndarray, float, int]]:
    """Minimize the RMSLE from every start, all starts in lockstep.

    Each start runs its own L-BFGS-B (:class:`_LbfgsbStart`) with scipy's
    2-point finite-difference gradient.  At every step the points all
    unfinished starts ask for are evaluated together, loss and gradient in
    one :func:`_rmsle_steps` pass.  Starts never interact, so each returns
    the ``(x, fun, nit)`` a separate ``minimize(method="L-BFGS-B",
    jac=None, bounds=..., options={"maxiter": 60})`` call returns, bit for
    bit: ``fun`` is the last evaluated loss, as in scipy.
    """
    # scipy's bound encoding: nbd 1 = lower bound only, 2 = both bounds.
    finite_ub = np.isfinite(ub)
    nbd = np.where(finite_ub, 2, 1).astype(np.int32)
    upper = np.where(finite_ub, ub, 0.0)
    solvers = [_LbfgsbStart(np.clip(x0, lb, ub), lb, upper, nbd) for x0 in starts]
    active = [s for s in solvers if s.advance()]
    while active:
        x = np.array([s.x for s in active])
        stepped = _fd_steps(x, lb, ub)
        losses = _rmsle_steps(x, stepped, free_idx, data)
        f0 = losses[:, :1]
        grads = (losses[:, 1:] - f0) / (stepped - x)
        for s, f, g in zip(active, f0[:, 0].tolist(), grads):
            s.f = f
            s.g[:] = g
        active = [s for s in active if s.advance()]
    return [(s.x, s.f, s.nit) for s in solvers]


def project_throughput_params(
    params: ThroughputParams, speed_ratio: float
) -> ThroughputParams:
    """Project theta_sys onto a GPU type ``speed_ratio`` times faster.

    Scales the gradient-computation parameters by 1/speed_ratio and leaves
    the (network-bound) synchronization parameters untouched — the explicit
    form of the throughput-ratio projection that evaluating the model with a
    ``speed`` argument performs implicitly.
    """
    if speed_ratio <= 0:
        raise ValueError("speed_ratio must be positive")
    return params.replace(
        alpha_grad=params.alpha_grad / speed_ratio,
        beta_grad=params.beta_grad / speed_ratio,
    )


def fit_throughput_params(
    observations: Iterable[ProfileEntry],
    exploration: Optional[ExplorationState] = None,
    initial: Optional[ThroughputParams] = None,
    num_restarts: int = 4,
    seed: int = 0,
) -> ThroughputParams:
    """Fit theta_sys to observed profile entries (Sec. 4.1, online fitting).

    Minimizes RMSLE between Eqn. 11 and the observations using L-BFGS-B with
    non-negativity bounds on the alpha/beta parameters and gamma in [1, 10].
    Parameters pinned by the exploration priors are held at zero and excluded
    from the optimization.

    Args:
        observations: Profile entries collected during training.
        exploration: Exploration state controlling the Sec. 4.1 priors.  When
            ``None``, all parameters are free.
        initial: Optional warm-start parameters (e.g. the previous fit).
        num_restarts: Number of random restarts in addition to the warm start.
        seed: Seed for the random restarts.

    Returns:
        The fitted :class:`ThroughputParams`.

    Raises:
        ValueError: If no observations are provided.
    """
    obs = list(observations)
    if not obs:
        raise ValueError("cannot fit throughput model with no observations")

    nodes = np.array([o.num_nodes for o in obs], dtype=float)
    gpus = np.array([o.num_gpus for o in obs], dtype=float)
    batch = np.array([o.batch_size for o in obs], dtype=float)
    t_obs = np.array([o.t_iter for o in obs], dtype=float)
    speeds = np.array([o.speed for o in obs], dtype=float)

    pinned = exploration.pinned_params() if exploration is not None else ()
    free_names = [n for n in _PARAM_NAMES if n not in pinned]
    free_idx = np.array([_PARAM_NAMES.index(n) for n in free_names], dtype=int)

    # Scale-aware initial guesses: alpha_grad near the smallest observed
    # iteration time, beta_grad near t_iter / local batch size.  Observed
    # times are converted to reference-device units (t * speed) first.
    t_ref = t_obs * speeds
    t_min = float(np.min(t_ref))
    local_bsz = batch / gpus
    beta_guess = float(np.median(t_ref / np.maximum(local_bsz, 1e-9)))
    default = {
        "alpha_grad": 0.5 * t_min,
        "beta_grad": 0.5 * beta_guess,
        "alpha_sync_local": 0.1 * t_min,
        "beta_sync_local": 0.01 * t_min,
        "alpha_sync_node": 0.2 * t_min,
        "beta_sync_node": 0.01 * t_min,
        "gamma": 2.0,
    }

    starts: List[np.ndarray] = []
    if initial is not None:
        starts.append(initial.as_vector()[free_idx])
    starts.append(np.array([default[n] for n in free_names], dtype=float))
    rng = np.random.default_rng(seed)
    for _ in range(num_restarts):
        jitter = rng.lognormal(mean=0.0, sigma=1.0, size=len(free_names))
        start = np.array([default[n] for n in free_names], dtype=float) * jitter
        if "gamma" in free_names:
            gidx = free_names.index("gamma")
            start[gidx] = rng.uniform(GAMMA_MIN, GAMMA_MAX)
        starts.append(start)

    # alpha/beta >= 0; gamma, never pinned and so always last, in [1, 10].
    lb = np.zeros(free_idx.size)
    lb[-1] = GAMMA_MIN
    ub = np.full(free_idx.size, np.inf)
    ub[-1] = GAMMA_MAX
    data = _FitData.build(nodes, gpus, batch, speeds, np.log(t_obs))
    best_vec: Optional[np.ndarray] = None
    best_loss = np.inf
    for x, fun, _ in _lbfgsb_lockstep(starts, lb, ub, free_idx, data):
        if fun < best_loss:
            best_loss = fun
            best_vec = x

    assert best_vec is not None
    full = np.zeros(len(_PARAM_NAMES))
    full[free_idx] = np.abs(best_vec)
    full[-1] = float(np.clip(full[-1], GAMMA_MIN, GAMMA_MAX))
    return ThroughputParams.from_vector(full)
