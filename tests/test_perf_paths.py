"""Bit-identity tests for the hot-path fast implementations.

The perf subsystem replaced several numpy-array code paths with cheaper
equivalents — the lockstep L-BFGS-B loop and fused loss pass of the
theta_sys fit, scalar evaluations for golden-section search and the
simulator's ground truth, and restricted re-checks in the GA's interference
repair.  Every one of them is required to be *bit-for-bit* identical to the
original formulation (the homogeneous default-config invariant), which is
what these tests pin down.
"""

import numpy as np
from scipy.optimize import minimize

from repro.core import throughput
from repro.core.efficiency import efficiency, efficiency_scalar
from repro.core.goodput import BatchSizeLimits, GoodputModel
from repro.core.efficiency import EfficiencyModel
from repro.core.throughput import (
    _PARAM_NAMES,
    GAMMA_MAX,
    GAMMA_MIN,
    ExplorationState,
    ProfileEntry,
    ThroughputModel,
    ThroughputParams,
    _FitData,
    _fd_steps,
    _rmsle_full,
    _rmsle_steps,
    fit_throughput_params,
    t_iter_scalar,
    throughput_scalar,
)
from repro.workload.gns import GNSTrajectory


def _random_params(rng) -> ThroughputParams:
    return ThroughputParams(
        alpha_grad=float(rng.uniform(0.0, 0.2)),
        beta_grad=float(rng.uniform(0.0, 0.03)),
        alpha_sync_local=float(rng.uniform(0.0, 0.05)),
        beta_sync_local=float(rng.uniform(0.0, 0.005)),
        alpha_sync_node=float(rng.uniform(0.0, 0.3)),
        beta_sync_node=float(rng.uniform(0.0, 0.02)),
        gamma=float(rng.uniform(1.0, 10.0)),
    )


class TestScalarThroughputPaths:
    def test_t_iter_scalar_bit_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = _random_params(rng)
            model = ThroughputModel(p)
            gpus = int(rng.integers(1, 65))
            nodes = int(rng.integers(1, gpus + 1))
            m = float(rng.uniform(1.0, 65536.0))
            speed = float(rng.uniform(0.5, 4.0))
            assert t_iter_scalar(p, nodes, gpus, m, speed) == float(
                model.t_iter(nodes, gpus, m, speed)
            )
            assert throughput_scalar(p, nodes, gpus, m, speed) == float(
                model.throughput(nodes, gpus, m, speed)
            )

    def test_goodput_scalar_bit_identical(self):
        rng = np.random.default_rng(1)
        limits = BatchSizeLimits(
            init_batch_size=128.0, max_batch_size=8192.0, max_local_bsz=1024.0
        )
        for _ in range(200):
            p = _random_params(rng)
            model = GoodputModel(
                p, EfficiencyModel(128.0, float(rng.uniform(0.0, 2000.0))), limits
            )
            gpus = int(rng.integers(1, 17))
            nodes = int(rng.integers(1, gpus + 1))
            m = float(rng.uniform(128.0, 8192.0))
            assert model.goodput_scalar(nodes, gpus, m) == float(
                model.goodput(nodes, gpus, m)
            )

    def test_efficiency_scalar_bit_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            phi = float(rng.uniform(0.0, 5000.0))
            m0 = float(rng.uniform(1.0, 1024.0))
            m = float(rng.uniform(m0, 65536.0))
            assert efficiency_scalar(phi, m0, m) == efficiency(phi, m0, m)

    def test_gns_phi_scalar_bit_identical(self):
        rng = np.random.default_rng(3)
        trajectories = [
            GNSTrajectory(
                phi_start=2000.0,
                phi_end=8000.0,
                decay_jumps=((1 / 3, 3.0), (2 / 3, 3.0)),
            ),
            GNSTrajectory(phi_start=20.0, phi_end=120.0, decay_jumps=((0.6, 2.0),)),
            GNSTrajectory(phi_start=30.0, phi_end=250.0),
        ]
        for gns in trajectories:
            for p in [0.0, 1 / 3, 0.5, 0.6, 2 / 3, 1.0, -0.5, 1.5] + list(
                rng.uniform(0, 1, 100)
            ):
                assert gns.phi_scalar(float(p)) == float(gns.phi(float(p)))


_SPEEDS = (0.5, 1.0, 2.0)


def _random_data(rng, n_obs: int) -> _FitData:
    """Observation arrays with mixed placements and GPU speeds."""
    gpus = rng.integers(1, 17, n_obs).astype(float)
    nodes = np.minimum(rng.integers(1, 5, n_obs), gpus).astype(float)
    batch = rng.uniform(8, 2048, n_obs)
    speeds = rng.choice(_SPEEDS, n_obs)
    t_obs_log = np.log(rng.uniform(0.01, 1.0, n_obs))
    return _FitData.build(nodes, gpus, batch, speeds, t_obs_log)


def _random_exploration(rng) -> ExplorationState:
    """Any of the eight pin sets (flags drawn independently)."""
    return ExplorationState(*(bool(b) for b in rng.integers(0, 2, 3)))


def _full_vector(free_idx, x) -> np.ndarray:
    full = np.zeros(7)
    full[free_idx] = x
    return full


class TestFusedRmsle:
    def test_step_rows_match_full(self):
        """Every loss of the fused pass equals the 1-D evaluation."""
        rng = np.random.default_rng(4)
        # The sizes cross numpy's pairwise-summation block edges (8, 128).
        for n_obs in (1, 8, 9, 17, 128, 129, 200):
            for _ in range(6):
                data = _random_data(rng, n_obs)
                pinned = _random_exploration(rng).pinned_params()
                free_idx = np.array(
                    [i for i, name in enumerate(_PARAM_NAMES) if name not in pinned]
                )
                n = free_idx.size
                num_starts = int(rng.integers(1, 7))
                x = np.abs(rng.normal(0.0, 0.1, (num_starts, n)))
                x[:, -1] = rng.choice([1.0, 10.0, 2.5, 7.3], num_starts)
                lb = np.zeros(n)
                lb[-1] = GAMMA_MIN
                ub = np.full(n, np.inf)
                ub[-1] = GAMMA_MAX
                stepped = _fd_steps(x, lb, ub)
                losses = _rmsle_steps(x, stepped, free_idx, data)
                assert losses.shape == (num_starts, n + 1)
                for s in range(num_starts):
                    assert losses[s, 0] == _rmsle_full(
                        _full_vector(free_idx, x[s]), data
                    )
                    for i in range(n):
                        point = x[s].copy()
                        point[i] = stepped[s, i]
                        assert losses[s, 1 + i] == _rmsle_full(
                            _full_vector(free_idx, point), data
                        )


class TestLockstepFitter:
    def test_matches_per_start_scipy_minimize(self, monkeypatch):
        """Lockstep starts equal separate jac=None L-BFGS-B runs, bit for bit.

        The reference is what the fitter used to run: one
        ``minimize(method="L-BFGS-B", jac=None)`` per start over
        :func:`_rmsle_full`, keeping the first start with the lowest loss.
        Each start's ``(x, fun, nit)`` is compared, so starts that stop at
        different iterations (convergence, the 60-iteration cap, line-search
        failure) are all covered.
        """
        calls = []
        real = throughput._lbfgsb_lockstep

        def recording(starts, lb, ub, free_idx, data):
            results = real(starts, lb, ub, free_idx, data)
            calls.append((starts, lb, ub, free_idx, data, results))
            return results

        monkeypatch.setattr(throughput, "_lbfgsb_lockstep", recording)
        rng = np.random.default_rng(5)
        nits = set()
        for case in range(80):
            truth = _random_params(rng)
            model = ThroughputModel(truth)
            obs = []
            for _ in range(int(rng.choice([1, 2, 5, 9, 17, 40, 200]))):
                gpus = int(rng.integers(1, 17))
                nodes = int(rng.integers(1, min(gpus, 4) + 1))
                bs = float(rng.uniform(8, 2048))
                speed = float(rng.choice(_SPEEDS))
                t = float(model.t_iter(nodes, gpus, bs, speed))
                t *= float(rng.lognormal(0, 0.05))
                obs.append(ProfileEntry(nodes, gpus, bs, t, speed))
            initial = None
            if case % 3:
                initial = _random_params(rng).replace(gamma=[1.0, 10.0][case % 2])
            fitted = fit_throughput_params(
                obs,
                _random_exploration(rng),
                initial=initial,
                num_restarts=int(rng.integers(0, 5)),
                seed=case,
            )
            starts, lb, ub, free_idx, data, results = calls[-1]
            assert len(results) == len(starts)
            bounds = [(lo, None if np.isinf(hi) else hi) for lo, hi in zip(lb, ub)]
            best_x, best_loss = None, np.inf
            for start, (x, fun, nit) in zip(starts, results):
                ref = minimize(
                    lambda v: _rmsle_full(_full_vector(free_idx, v), data),
                    np.clip(start, lb, ub),
                    jac=None,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 60},
                )
                assert np.array_equal(ref.x, x)
                assert ref.fun == fun
                assert ref.nit == nit
                nits.add(nit)
                if ref.fun < best_loss:
                    best_x, best_loss = ref.x, ref.fun
            full = _full_vector(free_idx, np.abs(best_x))
            full[6] = float(np.clip(full[6], GAMMA_MIN, GAMMA_MAX))
            assert fitted == ThroughputParams.from_vector(full)
        # Starts stopped both before and at the iteration cap.
        assert 60 in nits and min(nits) < 60


class TestSimJobDerivedCache:
    def test_allocation_setter_invalidates_derived_state(self):
        from repro.sim.job import SimJob
        from repro.workload import MODEL_ZOO, JobSpec

        spec = JobSpec(
            name="j",
            model=MODEL_ZOO["resnet18-cifar10"],
            submission_time=0.0,
            fixed_num_gpus=1,
            fixed_batch_size=128,
        )
        job = SimJob(spec, num_nodes=3, node_speeds=np.array([1.0, 2.0, 2.0]))
        assert job.num_gpus == 0 and job.current_speed == 1.0
        job.allocation = np.array([2, 1, 0])
        assert job.num_gpus == 3
        assert job.num_nodes_occupied == 2
        assert job.is_distributed
        assert job.current_speed == 1.0  # slowest occupied node
        job.allocation = np.array([0, 4, 0])
        assert job.num_gpus == 4
        assert not job.is_distributed
        assert job.current_speed == 2.0
        job.node_speeds = np.array([1.0, 3.2, 3.2])
        assert job.current_speed == 3.2

    def test_ground_truth_matches_array_formulation(self):
        from repro.sim.job import SimJob
        from repro.workload import MODEL_ZOO, JobSpec

        for name, profile in MODEL_ZOO.items():
            spec = JobSpec(
                name=name,
                model=profile,
                submission_time=0.0,
                fixed_num_gpus=4,
                fixed_batch_size=profile.init_batch_size,
            )
            job = SimJob(spec, num_nodes=4)
            job.allocation = np.array([2, 2, 0, 0])
            job.progress = 0.4 * job.target
            expected_t = float(
                profile.throughput_true.t_iter(2, 4, job.batch_size, 1.0)
            )
            assert job.t_iter_true() == expected_t
            expected_tput = float(
                profile.throughput_true.throughput(2, 4, job.batch_size, 1.0)
            )
            assert job.throughput_true() == expected_tput
            assert job.phi_true() == float(profile.gns.phi(job.progress_fraction))


class TestRepairInterferenceEquivalence:
    def test_restricted_recheck_matches_reference(self):
        """The incremental repair equals the original full-rescan repair."""
        from repro.cluster import ClusterSpec
        from repro.core.genetic import (
            AllocationProblem,
            GAConfig,
            GeneticOptimizer,
            JobGAInfo,
        )

        def reference_repair(pop, problem, rng):
            pop = pop.copy()
            for _ in range(problem.num_nodes + 1):
                dist = (pop > 0).sum(axis=-1) >= 2
                present = pop > 0
                sharing = (present & dist[:, :, None]).sum(axis=1)
                where_p, where_n = np.where(sharing >= 2)
                if len(where_p) == 0:
                    return pop
                for p, n in zip(where_p, where_n):
                    row_dist = (pop[p] > 0).sum(axis=-1) >= 2
                    offenders = np.where((pop[p, :, n] > 0) & row_dist)[0]
                    if len(offenders) < 2:
                        continue
                    keep = offenders[rng.integers(0, len(offenders))]
                    drop = offenders[offenders != keep]
                    pop[p, drop, n] = 0
            return pop

        rng = np.random.default_rng(13)
        cluster = ClusterSpec.homogeneous(5, 4)
        table = np.zeros((9, 2))
        table[1:, :] = np.linspace(1.0, 3.0, 8)[:, None]
        jobs = [
            JobGAInfo(
                speedup_table=table,
                weight=1.0,
                max_gpus=8,
                current_alloc=np.zeros(5, dtype=np.int64),
                running=False,
            )
            for _ in range(7)
        ]
        problem = AllocationProblem(cluster, jobs)
        for seed in range(20):
            pop = np.random.default_rng(seed).integers(
                0, 3, size=(6, 7, 5), dtype=np.int64
            )
            opt = GeneticOptimizer(
                problem,
                GAConfig(population_size=6, generations=1),
                rng=np.random.default_rng(99),
            )
            fast = pop.copy()
            opt._repair_interference(fast)
            expected = reference_repair(pop, problem, np.random.default_rng(99))
            assert np.array_equal(fast, expected)
