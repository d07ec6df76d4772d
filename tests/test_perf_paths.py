"""Bit-identity tests for the hot-path fast implementations.

The perf subsystem replaced several numpy-array code paths with cheaper
equivalents — the lockstep L-BFGS-B loop and fused loss pass of the
theta_sys fit, scalar evaluations for golden-section search and the
simulator's ground truth, the per-job padded fold of the speedup tables,
and restricted re-checks and incremental counts in the GA's interference
repairs.  Every one of them is required to be *bit-for-bit* identical to the
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


def _segmented_fold_reference(models, caps, type_speeds, squeeze, cells):
    """The ragged segmented-argmax fold the padded per-job fold replaced.

    Takes each job's cells in the ragged layout (``_ragged_cells``): one
    ``(2, T, C)`` cell axis joined over all jobs, reduced per (job, k) row
    with ``maximum.reduceat`` and a first-maximum emulation.
    """
    from repro.core.speedup import MULTI_NODE, SINGLE_NODE

    caps = np.asarray(caps, dtype=np.int64)
    speeds = np.asarray(type_speeds, dtype=float)
    num_jobs = len(models)
    num_types = speeds.size
    flat = squeeze and num_types == 1
    ref_type = int(np.argmin(speeds))
    offsets = np.concatenate([[0], np.cumsum(caps)[:-1]])
    num_rows = int(caps.sum())
    job_of_row = np.repeat(np.arange(num_jobs), caps)

    tput = np.concatenate([c[0] for c in cells], axis=-1)
    m_cells = np.concatenate([c[1] for c in cells])
    counts = np.concatenate([c[2] for c in cells])
    cells_per_job = np.array([c[1].size for c in cells], dtype=np.int64)
    cell_job = np.repeat(np.arange(num_jobs), cells_per_job)

    phi_job = np.array([m.efficiency_model.grad_noise_scale for m in models])
    m0_job = np.array([m.efficiency_model.init_batch_size for m in models])
    phi_c = phi_job[cell_job]
    eff = (phi_c + m0_job[cell_job]) / (phi_c + m_cells)
    goodput = tput * eff

    best_val = np.zeros((2, num_types, num_rows), dtype=float)
    best_m = np.zeros((2, num_types, num_rows), dtype=float)
    rows_nz = counts > 0
    num_cells = int(m_cells.size)
    if num_cells:
        starts_all = np.concatenate([[0], np.cumsum(counts)[:-1]])
        starts_nz = starts_all[rows_nz]
        seg_max = np.maximum.reduceat(goodput, starts_nz, axis=-1)
        num_nz = int(rows_nz.sum())
        seg_of_cell = np.repeat(np.arange(num_nz), counts[rows_nz])
        is_max = goodput == seg_max[:, :, seg_of_cell]
        cand = np.where(
            is_max,
            np.arange(num_cells, dtype=np.int32)[None, None, :],
            np.int32(num_cells),
        )
        seg_arg = np.minimum.reduceat(cand, starts_nz, axis=-1)
        best_val[:, :, rows_nz] = seg_max
        best_m[:, :, rows_nz] = m_cells[seg_arg]
    best_val[MULTI_NODE, :, offsets] = 0.0
    best_m[MULTI_NODE, :, offsets] = 0.0

    min_gpus_job = np.array([m.limits.min_gpus() for m in models], dtype=np.int64)
    has_ref = min_gpus_job <= caps
    denom_job = np.zeros(num_jobs, dtype=float)
    ref_rows = offsets + np.minimum(min_gpus_job, caps) - 1
    denom_job[has_ref] = best_val[SINGLE_NODE, ref_type, ref_rows[has_ref]]
    pos = denom_job > 0
    denom_rows = np.where(pos, denom_job, 1.0)[job_of_row]
    sp_val = (best_val / denom_rows) * pos[job_of_row]

    sp_full = np.zeros((num_rows + num_jobs, 2, num_types), dtype=float)
    bm_full = np.zeros((num_rows + num_jobs, 2, num_types), dtype=float)
    target = np.arange(num_rows) + job_of_row + 1
    sp_full[target] = sp_val.transpose(2, 0, 1)
    bm_full[target] = best_m.transpose(2, 0, 1)
    out = []
    for j, cap in enumerate(caps):
        block = slice(int(offsets[j]) + j, int(offsets[j]) + j + int(cap) + 1)
        if flat:
            out.append((sp_full[block, :, 0], bm_full[block, :, 0]))
        else:
            out.append((sp_full[block], bm_full[block]))
    return out


def _ragged_cells(cells):
    """A padded ``TputCells`` in the ragged ``(tput, m_cells, counts)`` form."""
    on_grid = np.arange(cells.m_grid.size)[None, :] < cells.counts[:, None]
    m_cells = np.broadcast_to(cells.m_grid, on_grid.shape)[on_grid]
    return cells.tput[:, :, on_grid], m_cells, cells.counts


def _edge_models():
    """Jobs at the fold's corners, each with the cap that exercises it."""
    params = ThroughputParams(
        alpha_grad=0.03,
        beta_grad=0.0006,
        alpha_sync_local=0.0025,
        beta_sync_local=0.0002,
        alpha_sync_node=0.012,
        beta_sync_node=0.0008,
        gamma=2.2,
    )

    def model(m0, max_bs, max_local, phi):
        limits = BatchSizeLimits(
            init_batch_size=m0, max_batch_size=max_bs, max_local_bsz=max_local
        )
        return GoodputModel(params, EfficiencyModel(m0, phi), limits)

    return [
        # min_gpus (8) > cap: no row has a feasible cell, all-zero table.
        (model(512.0, 4096.0, 64.0, 300.0), 4),
        # min_gpus 4 <= cap: rows k = 1..3 have no feasible cell.
        (model(256.0, 8192.0, 64.0, 2000.0), 16),
        # hi == lo: a one-point grid.
        (model(128.0, 128.0, 128.0, 50.0), 6),
        # One-point grid that only fits from k = 2 on.
        (model(128.0, 128.0, 64.0, 50.0), 3),
        # phi == 0: efficiency falls fastest with m.
        (model(32.0, 4096.0, 128.0, 0.0), 1),
    ]


class TestSurfaceFold:
    """The per-job padded fold equals the ragged segmented-argmax fold."""

    @staticmethod
    def _models_and_caps(seed):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from benchmarks.bench_scale import _synthetic_state
        from repro.cluster import ClusterSpec

        state = _synthetic_state(ClusterSpec.homogeneous(16, 4), 40, seed=seed)
        rng = np.random.default_rng(seed)
        pairs = [
            (snap.agent_report.goodput_model(), int(rng.integers(1, 65)))
            for snap in state.jobs
        ]
        pairs += _edge_models()
        pairs += [(m, 64) for m, _ in _edge_models()]
        order = rng.permutation(len(pairs))
        return [pairs[i][0] for i in order], [pairs[i][1] for i in order]

    def test_padded_fold_matches_segmented_reference(self):
        from repro.core.speedup import build_surfaces_batch, build_tput_cells

        for seed in range(3):
            models, caps = self._models_and_caps(seed)
            for speeds in ((1.0,), (2.0, 1.0, 0.5)):
                cells = build_tput_cells(models, caps, 16, speeds)
                for job_cells, cap in zip(cells, caps):
                    assert job_cells.tput.shape == (
                        2,
                        len(speeds),
                        cap,
                        job_cells.m_grid.size,
                    )
                    pad = (
                        np.arange(job_cells.m_grid.size)[None, :]
                        >= job_cells.counts[:, None]
                    )
                    assert not job_cells.tput[:, :, pad].any()
                ragged = [_ragged_cells(c) for c in cells]
                for squeeze in (True, False):
                    got = build_surfaces_batch(
                        models, caps, 16, speeds, squeeze=squeeze, cells=cells
                    )
                    want = _segmented_fold_reference(
                        models, caps, speeds, squeeze, ragged
                    )
                    for (sp, bm), (sp_ref, bm_ref) in zip(got, want):
                        assert np.array_equal(sp, sp_ref)
                        assert np.array_equal(bm, bm_ref)

    def test_zero_goodput_row_keeps_batch_size(self):
        """A feasible row whose best goodput is 0 is masked by count only."""
        from repro.core.speedup import (
            TputCells,
            build_surfaces_batch,
            build_tput_cells,
        )

        models = [m for m, _ in _edge_models()][1:3]
        caps = [16, 6]
        cells = []
        for job_cells in build_tput_cells(models, caps):
            tput = job_cells.tput.copy()
            tput[:, :, -2:] = 0.0  # feasible rows with zero throughput
            cells.append(TputCells(tput, job_cells.m_grid, job_cells.counts))
        got = build_surfaces_batch(models, caps, cells=cells)
        want = _segmented_fold_reference(
            models, caps, (1.0,), True, [_ragged_cells(c) for c in cells]
        )
        for (sp, bm), (sp_ref, bm_ref), job_cells in zip(got, want, cells):
            assert np.array_equal(sp, sp_ref)
            assert np.array_equal(bm, bm_ref)
            assert (bm[-2:, 0] == job_cells.m_grid[0]).all()

    def test_edge_jobs_tables(self):
        from repro.core.speedup import build_surfaces_batch

        models = [m for m, _ in _edge_models()]
        caps = [c for _, c in _edge_models()]
        tables = build_surfaces_batch(models, caps)
        # min_gpus > cap: everything reads 0.
        assert not tables[0][0].any() and not tables[0][1].any()
        # Rows below min_gpus read 0; the rest keep a batch size.
        sp, bm = tables[1]
        assert not sp[:4].any() and not bm[:4].any()
        assert (bm[4:, 0] > 0).all() and sp[4, 0] == 1.0
        # One-point grid: every feasible cell picks m0.
        sp, bm = tables[2]
        assert (bm[1:, 0] == 128.0).all() and (bm[2:, 1] == 128.0).all()
        assert bm[1, 1] == 0.0 and sp[1, 0] == 1.0
        sp, bm = tables[3]
        assert bm[1, 0] == 0.0 and (bm[2:, 0] == 128.0).all()
        assert sp[2, 0] == 1.0


class TestV2InterferenceEquivalence:
    """The incremental v2 repair equals the full-rescan node-major repair."""

    @staticmethod
    def _reference_repair(pop, rng):
        """Node-major passes recomputing every count from the population."""
        num_members, _, num_nodes = pop.shape
        member_idx = np.arange(num_members)
        before = (pop > 0).sum(axis=-1)
        passes = 0
        for _ in range(num_nodes):
            present = pop > 0
            dist = present.sum(axis=-1) >= 2
            dist_present = present & dist[:, :, None]
            violating = dist_present.sum(axis=1) >= 2
            if not violating.any():
                break
            passes += 1
            first_n = np.argmax(violating, axis=1)
            rows = np.where(violating[member_idx, first_n])[0]
            candidates = dist_present[rows, :, first_n[rows]]
            keys = np.where(candidates, rng.random(candidates.shape), -1.0)
            keep = np.argmax(keys, axis=1)
            drop = candidates
            drop[np.arange(len(rows)), keep] = False
            cols = pop[rows, :, first_n[rows]]
            cols[drop] = 0
            pop[rows, :, first_n[rows]] = cols
        after = (pop > 0).sum(axis=-1)
        fell_to_one = int(((before >= 2) & (after == 1)).sum())
        return passes, fell_to_one

    def test_matches_full_rescan_reference(self):
        from repro.cluster import ClusterSpec
        from repro.core.genetic import (
            AllocationProblem,
            GAConfig,
            GeneticOptimizerV2,
            JobGAInfo,
        )

        for shape, density in (
            ((24, 4, 6), 0.5),
            ((16, 71, 16), 0.12),
            ((16, 114, 32), 0.06),
        ):
            num_members, num_jobs, num_nodes = shape
            cluster = ClusterSpec.homogeneous(num_nodes, 4)
            table = np.zeros((9, 2))
            table[1:, :] = np.linspace(1.0, 3.0, 8)[:, None]
            jobs = [
                JobGAInfo(
                    speedup_table=table,
                    weight=1.0,
                    max_gpus=8,
                    current_alloc=np.zeros(num_nodes, dtype=np.int64),
                    running=False,
                )
                for _ in range(num_jobs)
            ]
            problem = AllocationProblem(cluster, jobs)
            total_passes = total_fell = 0
            for seed in range(10):
                data = np.random.default_rng(seed)
                pop = np.where(
                    data.random(shape) < density,
                    data.integers(1, 4, size=shape),
                    0,
                ).astype(np.int64)
                opt = GeneticOptimizerV2(
                    problem,
                    GAConfig(population_size=num_members, generations=1),
                    rng=np.random.default_rng(99 + seed),
                )
                fast = pop.copy()
                opt._repair_interference(fast)
                ref_rng = np.random.default_rng(99 + seed)
                expected = pop.copy()
                passes, fell = self._reference_repair(expected, ref_rng)
                total_passes += passes
                total_fell += fell
                assert np.array_equal(fast, expected)
                assert opt.rng.bit_generator.state == ref_rng.bit_generator.state
            # The populations exercise multi-pass repairs in which jobs fall
            # to one node part-way through.
            assert total_passes >= 3 * 10
            assert total_fell > 0
