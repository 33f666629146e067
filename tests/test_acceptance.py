"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
(visible with ``pytest -s``), and enforces its own runtime budget.  All
expected values come from independent oracles: Lagrangian bisection for
constrained extrema, dense pseudoinverses, scipy nullspaces, Monte-Carlo
volume estimation, and the complex SVD.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from entrybounds import (
    BoundStatus,
    LandweberConfig,
    LinearOperator,
    LinearSystem,
    Target,
    condition_report,
    crlb_identity_check,
    ellipsoid_volume,
    entrywise_bounds,
    extremal_solution,
    functional_bound,
    landweber_pinv,
    stochastic_diag,
    svd_truncated,
)
from entrybounds import cli, sense
from entrybounds.bounds import adjacent_difference_bounds

from conftest import kkt_interval, lift_matrix, lift_vector, nullspace_overlap


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} exceeded its {budget_s}s runtime budget ({elapsed:.1f}s)"


def sampled_systems(count, seed=42):
    """Random (A, b, eps, w) cases with mixed ranks, feasibility, and
    weight directions."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        m = int(rng.integers(2, 8, endpoint=True))
        n = int(rng.integers(1, 6, endpoint=True))
        a = rng.standard_normal((m, n))
        if n > 1 and rng.random() < 0.4:
            r = int(rng.integers(1, n))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        eps = float(rng.uniform(0.05, 2.0))
        if rng.random() < 0.7:
            x = rng.standard_normal(n)
            noise = rng.standard_normal(m)
            b = a @ x + noise / np.linalg.norm(noise) * rng.uniform(0.0, 0.9) * eps
        else:
            b = rng.standard_normal(m)
        if rng.random() < 0.5:
            w = np.zeros(n)
            w[rng.integers(n)] = 1.0
        else:
            w = rng.standard_normal(n)
        cases.append((a, b, eps, w))
    return cases


def rel_close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_criterion_1_oracle_tightness():
    with criterion(1, "interval matches constrained-optimization oracle", 30):
        statuses = {s: 0 for s in BoundStatus}
        for a, b, eps, w in sampled_systems(200):
            sys_ = LinearSystem(a=a, b=b, epsilon=eps)
            bound = functional_bound(sys_, w)
            statuses[bound.status] += 1

            residual = np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b))
            overlap = nullspace_overlap(a, w)
            if bound.status is BoundStatus.INFEASIBLE:
                assert residual > eps * (1 - 1e-9)
                continue
            assert residual <= eps * (1 + 1e-9)
            if bound.status is BoundStatus.UNBOUNDED:
                assert overlap > 1e-10 * np.linalg.norm(w)
                continue
            assert overlap <= 1e-6 * np.linalg.norm(w)
            lo, hi = kkt_interval(a, b, eps, w)
            assert rel_close(bound.lower, lo, 1e-6)
            assert rel_close(bound.upper, hi, 1e-6)
        # the sweep must genuinely exercise all three statuses
        assert all(statuses[s] > 0 for s in BoundStatus), statuses


def test_criterion_2_extremal_membership():
    with criterion(2, "extremal vectors are feasible and attain the endpoints", 10):
        for a, b, eps, w in sampled_systems(200):
            sys_ = LinearSystem(a=a, b=b, epsilon=eps)
            bound = functional_bound(sys_, w)
            if bound.status is BoundStatus.FINITE:
                for target, endpoint in ((Target.LOWER, bound.lower), (Target.UPPER, bound.upper)):
                    sol = extremal_solution(sys_, w, target)
                    assert sol.residual_norm <= eps * (1 + 1e-8)
                    assert abs(sol.achieved_value - endpoint) <= 1e-8 * max(1.0, abs(endpoint))
            elif bound.status is BoundStatus.UNBOUNDED:
                for alpha in (-1e3, 0.0, 1e3):
                    sol = extremal_solution(sys_, w, Target.ARBITRARY, alpha=alpha)
                    assert sol.residual_norm <= eps * (1 + 1e-8)
                    assert abs(sol.achieved_value - alpha) <= 1e-6 * max(1.0, abs(alpha))


def dominance_showcase():
    """Full-rank matrix whose worst entrywise condition number is far below
    the global one: a single collapsed direction spread evenly over all
    coordinates by a normalized Hadamard rotation, so no single entry sees
    the full ill-conditioning."""
    had = np.array([[1.0]])
    while had.shape[0] < 8:
        had = np.block([[had, had], [had, -had]])
    rot = had / np.sqrt(8.0)
    return np.diag([100.0] * 7 + [1.0]) @ rot.T


def test_criterion_3_condition_dominance():
    with criterion(3, "entrywise condition numbers never exceed the global one", 10):
        rng = np.random.default_rng(7)
        mats = [rng.standard_normal((int(rng.integers(4, 12)), 3)) for _ in range(99)]
        mats.append(dominance_showcase())
        found_gap = False
        for a in mats:
            f = svd_truncated(a)
            assert f.rank == a.shape[1]
            rep = condition_report(a)
            sigma_min = f.sigma[-1]
            for i in range(a.shape[1]):
                assert rep.spectral_entry[i] <= (1.0 / sigma_min) * (1 + 1e-10)
                assert rep.kappa_entry[i] <= rep.kappa_global * (1 + 1e-10)
            if rep.kappa_entry.max() < 0.5 * rep.kappa_global:
                found_gap = True
        assert found_gap


def test_criterion_4_truth_containment():
    with criterion(4, "true solution lies inside every finite interval", 10):
        rng = np.random.default_rng(11)
        violations = 0
        for _ in range(500):
            m = int(rng.integers(3, 10))
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            if rng.random() < 0.3:
                r = max(1, n - 1)
                a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            x_true = rng.standard_normal(n)
            eps = float(rng.uniform(0.1, 1.0))
            noise = rng.standard_normal(m)
            noise *= rng.uniform(0.0, 1.0) * eps / np.linalg.norm(noise)
            sys_ = LinearSystem(a=a, b=a @ x_true + noise, epsilon=eps)
            for i, bound in enumerate(entrywise_bounds(sys_)):
                if bound.status is not BoundStatus.FINITE:
                    continue
                if not bound.lower <= x_true[i] <= bound.upper:
                    violations += 1
        assert violations == 0


def test_criterion_5_landweber():
    with criterion(5, "Landweber matches the pseudoinverse within its rate bound", 20):
        rng = np.random.default_rng(3)
        # full-rank fixture with known spectrum
        q1, _ = np.linalg.qr(rng.standard_normal((15, 15)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = np.linspace(2.0, 0.5, 6)
        a = q1[:, :6] * s @ q2.T
        m_vec = rng.standard_normal(15)
        cfg = LandweberConfig(
            sigma1_estimate=2.0, sigma_min=0.5, rate_tol=1e-7,
            max_iters=10**7, rel_tol=0.0,
        )
        res = landweber_pinv(LinearOperator.from_matrix(a), m_vec, cfg)
        expected = np.linalg.pinv(a) @ m_vec
        assert np.linalg.norm(res.x - expected) <= 1e-6 * np.linalg.norm(expected)
        assert res.iterations <= cfg.iteration_bound()

        # rank-deficient fixture: iterates must stay out of the nullspace
        a2 = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 6))
        f2 = svd_truncated(a2)
        cfg2 = LandweberConfig(
            sigma1_estimate=float(f2.sigma[0]), sigma_min=float(f2.sigma[-1]),
            rate_tol=1e-7, max_iters=10**7, rel_tol=0.0,
        )
        res2 = landweber_pinv(LinearOperator.from_matrix(a2), rng.standard_normal(8), cfg2)
        perp = np.linalg.norm(f2.v_perp.T @ res2.x)
        assert perp <= 1e-6 * np.linalg.norm(res2.x)


def test_criterion_6_stochastic_estimator():
    with criterion(6, "stochastic sensitivity estimates concentrate and scale", 60):
        # diag(2, 1): every one of 20 seeds lands within 5% at S = 1e4
        op = LinearOperator.from_matrix(np.diag([2.0, 1.0]))
        # inner solves only need to be accurate well below the 5% check
        cfg = LandweberConfig(
            sigma1_estimate=2.0, sigma_min=1.0, tau=0.4, rate_tol=1e-4,
            rel_tol=0.0, max_iters=10**6,
        )
        exact = np.array([0.25, 1.0])
        for seed in range(20):
            est = stochastic_diag(op, samples=10**4, seed=seed, cfg=cfg)
            assert np.all(np.abs(est.values - exact) <= 0.05 * exact), seed

        # 1/sqrt(S) error decay on a 20x10 fixture with known spectrum
        rng = np.random.default_rng(5)
        q1, _ = np.linalg.qr(rng.standard_normal((20, 10)))
        q2, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        s = np.linspace(2.0, 1.0, 10)
        a = q1 * s @ q2.T
        dense_exact = np.linalg.norm(np.linalg.pinv(a), axis=1) ** 2
        op2 = LinearOperator.from_matrix(a)
        cfg2 = LandweberConfig(
            sigma1_estimate=2.0, sigma_min=1.0, tau=0.4, rate_tol=1e-5,
            rel_tol=0.0, max_iters=10**6,
        )
        errs = {}
        for samples in (10**2, 10**3, 10**4):
            est = stochastic_diag(op2, samples=samples, seed=17, cfg=cfg2)
            errs[samples] = float(
                np.linalg.norm(est.values - dense_exact) / np.linalg.norm(dense_exact)
            )
        # each decade should shrink the error by sqrt(10) within a factor 2
        for s_small, s_big in ((10**2, 10**3), (10**3, 10**4)):
            ratio = errs[s_small] / errs[s_big]
            assert np.sqrt(10.0) / 2.0 <= ratio <= 2.0 * np.sqrt(10.0), errs
        full = errs[10**2] / errs[10**4]
        assert 10.0 / 2.0 <= full <= 2.0 * 10.0, errs


def test_criterion_7_crlb_identity():
    with criterion(7, "variance floor identity holds entrywise", 10):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(2, min(m, 7)))
            a = rng.standard_normal((m, n))
            for i in range(n):
                lhs, rhs = crlb_identity_check(a, i)
                assert rel_close(lhs, rhs, 1e-8)


def test_criterion_8_lifting():
    with criterion(8, "complex lifting preserves residuals and spectra", 10):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            r_complex = np.linalg.norm(a @ x - b)
            r_real = np.linalg.norm(lift_matrix(a) @ lift_vector(x) - lift_vector(b))
            assert abs(r_real - r_complex) <= 1e-12 * max(1.0, r_complex)
            s_complex = np.linalg.svd(a, compute_uv=False)
            s_real = np.linalg.svd(lift_matrix(a), compute_uv=False)
            paired = np.sort(np.repeat(s_complex, 2))[::-1]
            assert np.max(np.abs(s_real - paired)) <= 1e-10


def grid_bound_maps(systems, epsilon, shape):
    """Lower/upper maps (re, im) from a list of decoupled systems."""
    maps = {k: np.full(shape, np.nan) for k in ("lower_re", "upper_re", "lower_im", "upper_im")}
    for rs in systems:
        sys_ = LinearSystem(a=rs.system.a, b=rs.system.b, epsilon=epsilon)
        for j, bound in enumerate(entrywise_bounds(sys_)):
            row, part = rs.voxel_rows[j % rs.n_sup], ("re", "im")[j // rs.n_sup]
            if bound.status is not BoundStatus.FINITE:
                continue
            maps[f"lower_{part}"][row, rs.line_index] = bound.lower
            maps[f"upper_{part}"][row, rs.line_index] = bound.upper
    return maps


def test_criterion_9_sense_pipeline(tmp_path):
    with criterion(9, "synthetic MRI pipeline: decoupling, pinch, reproducibility", 60):
        # (a) decoupled bounds equal the monolithic ones on an 8x8 grid
        ph = sense.make_phantom("smooth-blobs", 8, 8, seed=1)
        coils = sense.make_coils(4, 8, 8, seed=1)
        pat = sense.SamplingPattern(num_lines=8, accel=2, acs_lines=2)
        data = sense.simulate_acquisition(ph, coils, pat, noise_sigma=0.0, seed=0)
        epsilon = 0.01
        row_maps = grid_bound_maps(
            sense.build_row_systems(ph, coils, pat, data), epsilon, ph.shape
        )
        mono_base, voxel_map = sense.build_monolithic_system(ph, coils, pat, data)
        mono = LinearSystem(a=mono_base.a, b=mono_base.b, epsilon=epsilon)
        mono_maps = {k: np.full(ph.shape, np.nan) for k in row_maps}
        for j, bound in enumerate(entrywise_bounds(mono)):
            y, c, part = voxel_map[j]
            if bound.status is BoundStatus.FINITE:
                mono_maps[f"lower_{part}"][y, c] = bound.lower
                mono_maps[f"upper_{part}"][y, c] = bound.upper
        for key in row_maps:
            np.testing.assert_allclose(row_maps[key], mono_maps[key], atol=1e-8)

        # (b) noiseless run with eps = 0 pinches onto the truth
        pinch = sense.run_pipeline(
            {
                "grid": {"h": 12, "w": 12, "preset": "smooth-blobs", "seed": 1},
                "coils": {"l": 4, "phase_fold": True, "seed": 1},
                "pattern": {"accel": 2, "acs": 4},
                "noise": {"sigma": 0.0, "seed": 0},
                "epsilon": {"mode": "fixed", "value": 0.0},
            }
        )
        sup = pinch.truth.support_mask
        truth_re = pinch.truth.grid.real
        np.testing.assert_allclose(pinch.maps["lower_re"][sup], truth_re[sup], atol=1e-7)
        np.testing.assert_allclose(pinch.maps["upper_re"][sup], truth_re[sup], atol=1e-7)

        # (c) the default preset run: finite everywhere on support,
        # ordered condition maps, byte-stable outputs across reruns
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({}))
        manifests = []
        for name in ("run1", "run2"):
            outdir = tmp_path / name
            code = cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir)])
            assert code == 0
            manifests.append(json.loads((outdir / "manifest.json").read_text()))
        assert manifests[0]["outputs"] == manifests[1]["outputs"]

        res = sense.run_pipeline({})
        sup = res.truth.support_mask
        assert np.all(res.status[sup] == sense.STATUS_FINITE)
        ok = np.isfinite(res.maps["kappa_entry"])
        assert np.all(res.maps["kappa_entry"][ok] >= 0)
        assert np.all(
            res.maps["kappa_entry"][ok] <= res.maps["kappa_line"][ok] * (1 + 1e-10)
        )


def mc_volume(a, lam, samples, seed):
    """Rejection-sampling volume of {x : ||Ax|| <= lam} inside the dense
    pseudoinverse bounding box (independent of the closed form)."""
    rng = np.random.default_rng(seed)
    half = lam * np.linalg.norm(np.linalg.pinv(np.asarray(a, dtype=float)), axis=1)
    box_vol = float(np.prod(2.0 * half))
    x = rng.uniform(-1.0, 1.0, size=(samples, half.size)) * half
    inside = np.linalg.norm(x @ np.asarray(a, dtype=float).T, axis=1) <= lam
    return box_vol * inside.mean()


def test_criterion_10_ellipsoid_volume():
    with criterion(10, "ellipsoid volume agrees with Monte-Carlo", 30):
        assert ellipsoid_volume(np.eye(2), 1.0) == pytest.approx(np.pi, abs=1e-10)
        assert ellipsoid_volume(np.diag([2.0, 1.0]), 1.0) == pytest.approx(
            np.pi / 2.0, abs=1e-10
        )
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        fixtures = [
            (np.diag([1.0, 2.0, 3.0]), 1.5),
            (np.diag([2.0, 0.5]) @ q[:2, :2], 1.0),
            (rng.standard_normal((5, 3)), 0.8),
        ]
        for a, lam in fixtures:
            closed = ellipsoid_volume(a, lam)
            mc = mc_volume(a, lam, samples=400_000, seed=99)
            assert abs(mc - closed) <= 0.02 * closed, (closed, mc)


def test_interval_api_consistency_smoke():
    """Adjacent differences agree with explicit weight vectors (guards the
    index plumbing used throughout the acceptance checks)."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    b = a @ x + 0.05 * rng.standard_normal(6)
    sys_ = LinearSystem(a=a, b=b, epsilon=0.3)
    diffs = adjacent_difference_bounds(sys_, [(0, 1), (2, 3)])
    for (i, j), d in zip([(0, 1), (2, 3)], diffs):
        w = np.zeros(4)
        w[i], w[j] = 1.0, -1.0
        ref = functional_bound(sys_, w)
        assert d.lower == pytest.approx(ref.lower, abs=1e-12)
        assert d.upper == pytest.approx(ref.upper, abs=1e-12)
