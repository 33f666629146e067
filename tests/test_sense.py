import dataclasses
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from entrybounds import (
    LinearSystem,
    bounds,
    bounds_for,
    cli,
    condition_report,
    core,
    entrywise_bounds,
    epsilon_heuristic,
    extremal_solution,
    lifting,
    mio,
    sense,
    svd_truncated,
)
from entrybounds.bounds import Target, difference_rows
from entrybounds.errors import ConfigError, NumericalFailure, ShapeMismatch, UnknownPreset
from entrybounds.matfree import (
    LandweberConfig,
    adjoint_mismatch,
    landweber_pinv,
    power_iteration_sigma1,
    stochastic_diag,
)
from entrybounds.sense import (
    STATUS_FINITE,
    STATUS_OFF_SUPPORT,
    STATUS_UNDETERMINED,
    Phantom,
    _line_grams,
    SamplingPattern,
    build_monolithic_system,
    build_problem,
    build_row_systems,
    make_coils,
    make_phantom,
    run_pipeline,
    sense_operator,
    simulate_acquisition,
)


def monolithic(ph, coils, pat):
    """``build_monolithic_system`` without data: the grid check comes first."""
    return build_monolithic_system(ph, coils, pat, None)


def phantom_with_empty_line(h, w, seed, empty_line=None):
    """The smooth-blobs phantom, with readout line ``empty_line`` taken off
    its support when given."""
    ph = make_phantom("smooth-blobs", h, w, seed=seed)
    if empty_line is None:
        return ph
    mask = ph.support_mask.copy()
    mask[:, empty_line] = False
    return Phantom(grid=np.where(mask, ph.grid, 0.0), support_mask=mask)


def total_variation(profile):
    return float(
        np.abs(np.diff(profile, axis=0)).sum() + np.abs(np.diff(profile, axis=1)).sum()
    )


class TestPhantom:
    def test_support_fraction_golden(self):
        ph = make_phantom("smooth-blobs", 16, 16, seed=7)
        frac = ph.support_mask.mean()
        assert 0.3 <= frac <= 0.8

    def test_off_support_exactly_zero(self):
        for preset in ("smooth-blobs", "shepp-like"):
            ph = make_phantom(preset, 16, 16, seed=1)
            assert np.all(ph.grid[~ph.support_mask] == 0.0)
            mags = np.abs(ph.grid[ph.support_mask])
            assert np.all(mags > 0.0) and np.all(mags <= 1.0)

    def test_deterministic(self):
        a = make_phantom("shepp-like", 12, 12, seed=3)
        b = make_phantom("shepp-like", 12, 12, seed=3)
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            make_phantom("brain", 16, 16, seed=0)

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            make_phantom("smooth-blobs", 4, 16, seed=0)


class TestCoils:
    def test_single_channel_constant(self):
        coils = make_coils(1, 8, 8)
        np.testing.assert_array_equal(coils[0], np.ones((8, 8)))

    def test_no_coil_blind_voxels(self):
        ph = make_phantom("smooth-blobs", 16, 16, seed=2)
        coils = make_coils(8, 16, 16, seed=2)
        combined = np.sum(np.abs(coils) ** 2, axis=0)
        assert np.all(combined[ph.support_mask] > 0.0)

    def test_smoothness_cap(self):
        coils = make_coils(8, 16, 16, seed=0)
        for prof in coils:
            # smooth bumps: variation well below one unit per pixel pair
            assert total_variation(prof) < 0.2 * prof.size

    def test_phase_fold_requires_phantom(self):
        with pytest.raises(ConfigError):
            make_coils(4, 8, 8, phase_fold=True)

    def test_phase_fold_makes_reconstruction_real(self):
        ph = make_phantom("smooth-blobs", 12, 12, seed=4)
        coils = make_coils(4, 12, 12, phase_fold=True, seed=4, phantom=ph)
        truth = Phantom(grid=np.abs(ph.grid).astype(complex), support_mask=ph.support_mask)
        pat = SamplingPattern(num_lines=12, accel=2, acs_lines=4)
        data = simulate_acquisition(truth, coils, pat, noise_sigma=0.0, seed=0)
        for rs in build_row_systems(truth, coils, pat, data):
            sol = rs.system.solution()
            n_sup = rs.n_sup
            assert np.max(np.abs(sol[n_sup:])) <= 1e-8


class TestSamplingPattern:
    def test_stride_plus_center(self):
        pat = SamplingPattern(num_lines=32, accel=4, acs_lines=6)
        expected = np.unique(np.concatenate([np.arange(0, 32, 4), np.arange(13, 19)]))
        np.testing.assert_array_equal(pat.phase_encodes_kept, expected)

    def test_full_sampling(self):
        pat = SamplingPattern(num_lines=16, accel=1, acs_lines=0)
        np.testing.assert_array_equal(pat.phase_encodes_kept, np.arange(16))

    def test_invalid(self):
        with pytest.raises(ConfigError):
            SamplingPattern(num_lines=16, accel=0, acs_lines=4)


class TestRowSystems:
    def test_unitary_single_coil_case(self):
        # fully sampled, one constant coil: each decoupled matrix has
        # orthonormal columns, so every entrywise condition number is one
        # and interval half-widths are uniform
        ph = make_phantom("smooth-blobs", 16, 16, seed=1)
        coils = make_coils(1, 16, 16)
        pat = SamplingPattern(num_lines=16, accel=1, acs_lines=0)
        data = simulate_acquisition(ph, coils, pat, noise_sigma=0.0, seed=0)
        widths = []
        for rs in build_row_systems(ph, coils, pat, data):
            rep = condition_report(rs.system.a)
            np.testing.assert_allclose(rep.kappa_entry, 1.0, atol=1e-10)
            sys = LinearSystem(a=rs.system.a, b=rs.system.b, epsilon=0.3)
            for b in entrywise_bounds(sys):
                widths.append(b.half_width)
        assert np.ptp(widths) <= 1e-10

    def test_preset_overdetermined_full_rank(self):
        ph = make_phantom("smooth-blobs", 32, 32, seed=0)
        coils = make_coils(8, 32, 32, seed=0)
        pat = SamplingPattern(num_lines=32, accel=4, acs_lines=6)
        systems = build_row_systems(ph, coils, pat)
        assert systems
        for rs in systems:
            m, n = rs.system.shape
            assert m > n
            assert svd_truncated(rs.system.a).rank == n

    def test_noiseless_data_consistent(self):
        ph = make_phantom("shepp-like", 16, 16, seed=5)
        coils = make_coils(4, 16, 16, seed=5)
        pat = SamplingPattern(num_lines=16, accel=2, acs_lines=4)
        data = simulate_acquisition(ph, coils, pat, noise_sigma=0.0, seed=0)
        for rs in build_row_systems(ph, coils, pat, data):
            assert rs.system.residual() <= 1e-8

    def test_shape_mismatch(self):
        ph = make_phantom("smooth-blobs", 16, 16, seed=0)
        coils = make_coils(4, 12, 12, seed=0)
        pat = SamplingPattern(num_lines=16, accel=2, acs_lines=4)
        with pytest.raises(ShapeMismatch):
            build_row_systems(ph, coils, pat)


class TestAcquisition:
    def test_deterministic(self):
        ph = make_phantom("smooth-blobs", 12, 12, seed=0)
        coils = make_coils(4, 12, 12, seed=0)
        pat = SamplingPattern(num_lines=12, accel=2, acs_lines=2)
        a = simulate_acquisition(ph, coils, pat, noise_sigma=0.02, seed=9)
        b = simulate_acquisition(ph, coils, pat, noise_sigma=0.02, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_energy_concentration(self):
        ph = make_phantom("smooth-blobs", 24, 24, seed=0)
        coils = make_coils(6, 24, 24, seed=0)
        pat = SamplingPattern(num_lines=24, accel=2, acs_lines=4)
        sigma = 0.01
        data = simulate_acquisition(ph, coils, pat, noise_sigma=sigma, seed=1)
        m_total = data.noise.size
        ratio = np.linalg.norm(data.noise) ** 2 / (2 * m_total * sigma**2)
        assert 0.9 <= ratio <= 1.1


class TestSenseOperator:
    def test_adjoint_consistency(self):
        ph = make_phantom("smooth-blobs", 12, 12, seed=3)
        coils = make_coils(4, 12, 12, seed=3)
        pat = SamplingPattern(num_lines=12, accel=2, acs_lines=2)
        op, _ = sense_operator(ph, coils, pat)
        assert adjoint_mismatch(op, trials=5, seed=1) < 1e-10

    @pytest.mark.parametrize(
        "h, w, l", [(8, 8, 3), (10, 8, 3), (8, 10, 1)],
        ids=["8x8-3coils", "10x8-3coils", "8x10-1coil"],
    )
    def test_matches_monolithic_matrix(self, rng, h, w, l):
        ph = make_phantom("smooth-blobs", h, w, seed=2)
        coils = make_coils(l, h, w, seed=2)
        pat = SamplingPattern(num_lines=h, accel=2, acs_lines=2)
        data = simulate_acquisition(ph, coils, pat, noise_sigma=0.0, seed=0)
        sys, _ = build_monolithic_system(ph, coils, pat, data)
        op, _ = sense_operator(ph, coils, pat)
        a_dense = np.asarray(sys.a)
        x = rng.standard_normal(a_dense.shape[1])
        y = rng.standard_normal(a_dense.shape[0])
        x_c, y_c = (v[: v.size // 2] + 1j * v[v.size // 2 :] for v in (x, y))
        np.testing.assert_allclose(lifting.lift_vector(op.apply(x_c)), a_dense @ x, atol=1e-10)
        np.testing.assert_allclose(lifting.lift_vector(op.apply_transpose(y_c)), a_dense.T @ y,
                                   atol=1e-10)
        truth = ph.grid[ph.support_mask]
        np.testing.assert_allclose(
            sys.b, a_dense @ np.concatenate([truth.real, truth.imag]), atol=1e-10
        )

    @pytest.mark.parametrize("accel", [1, 2, 4])
    @pytest.mark.parametrize(
        "h, w, l, empty_line",
        [(8, 8, 1, None), (8, 8, 3, None), (10, 8, 3, None), (8, 10, 1, None), (8, 10, 3, 4)],
        ids=["8x8-1coil", "8x8-3coils", "10x8-3coils", "8x10-1coil", "8x10-3coils-empty-line"],
    )
    def test_normal_matches_fft_composition(self, rng, h, w, l, accel, empty_line):
        # the 8-wide support ellipse leaves its edge lines empty; one more
        # empty line inside it drops a line between nonempty ones from the
        # Gram stack
        ph = phantom_with_empty_line(h, w, 4, empty_line)
        coils = make_coils(l, h, w, seed=4)
        op, _ = sense_operator(ph, coils, SamplingPattern(num_lines=h, accel=accel, acs_lines=2))
        for _ in range(3):
            x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
            want = op.apply_transpose(op.apply(x))
            assert np.linalg.norm(op.normal(x) - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "h, w, l, empty_line",
        [(8, 8, 3, None), (10, 8, 3, None), (8, 10, 1, None), (12, 12, 4, None), (8, 10, 3, 4)],
        ids=["8-8-3", "10-8-3", "8-10-1", "12-12-4", "8-10-3-empty-line"],
    )
    def test_line_grams_are_the_row_normal_matrices(self, h, w, l, empty_line):
        ph = phantom_with_empty_line(h, w, 1, empty_line)
        coils = make_coils(l, h, w, seed=1)
        pat = SamplingPattern(num_lines=h, accel=2, acs_lines=2)
        gram, flat = _line_grams(ph, coils, pat)
        systems = build_row_systems(ph, coils, pat)
        n_max = gram.shape[1]
        # the grid has empty readout lines, and the stack no slot for them
        assert len(systems) < w
        assert gram.shape == (len(systems), n_max, n_max)
        assert n_max == max(rs.n_sup for rs in systems)
        ys, cs = np.nonzero(ph.support_mask)
        # one slot per line with support, in readout order
        for slot, rs in enumerate(systems):
            n, c = rs.n_sup, rs.line_index
            np.testing.assert_array_equal(gram[slot, :n, :n],
                                          rs.a_complex.conj().T @ rs.a_complex)
            # the flat index puts line c's voxels, in order, at its slot
            np.testing.assert_array_equal(flat[cs == c], slot * n_max + np.arange(n))
            np.testing.assert_array_equal(ys[cs == c], rs.voxel_rows)
            assert not gram[slot, n:, :].any() and not gram[slot, :, n:].any()
        op, _ = sense_operator(ph, coils, pat)
        np.testing.assert_array_equal(op.normal_blocks[0], gram)
        np.testing.assert_array_equal(op.normal_blocks[1], flat)

    def test_landweber_matches_monolithic_pinv(self, rng):
        ph = make_phantom("smooth-blobs", 8, 8, seed=2)
        coils = make_coils(3, 8, 8, seed=2)
        pat = SamplingPattern(num_lines=8, accel=2, acs_lines=2)
        data = simulate_acquisition(ph, coils, pat, noise_sigma=0.05, seed=1)
        sys, _ = build_monolithic_system(ph, coils, pat, data)
        op, _ = sense_operator(ph, coils, pat)
        s = np.linalg.svd(np.asarray(sys.a), compute_uv=False)
        cfg = LandweberConfig(sigma1_estimate=float(s[0]), sigma_min=float(s[-1]),
                              rate_tol=1e-11, max_iters=10**6, rel_tol=0.0)
        res = landweber_pinv(op, data.samples.reshape(-1), cfg)
        expected = np.linalg.pinv(np.asarray(sys.a)) @ np.asarray(sys.b)
        got = lifting.lift_vector(res.x)
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kind, failed", [("gaussian", 7), ("rademacher", 8)])
    def test_stochastic_diag_matches_fft_composition(self, kind, failed):
        ph = make_phantom("smooth-blobs", 8, 8, seed=2)
        coils = make_coils(3, 8, 8, seed=2)
        op, _ = sense_operator(ph, coils, SamplingPattern(num_lines=8, accel=2, acs_lines=2))
        fft = dataclasses.replace(op, normal_blocks=None)
        s1 = power_iteration_sigma1(op, seed=1)
        assert s1 == pytest.approx(power_iteration_sigma1(fft, seed=1), rel=1e-14)
        # the probes stop after 789 to 866 iterations; the budget splits them
        # 3 iterations or more away from any probe's count
        cfg = LandweberConfig(sigma1_estimate=s1, max_iters=818, rel_tol=1e-8)
        got = stochastic_diag(op, samples=10, probe_kind=kind, seed=3, cfg=cfg)
        want = stochastic_diag(fft, samples=10, probe_kind=kind, seed=3, cfg=cfg)
        assert got.failed_samples == want.failed_samples == failed
        np.testing.assert_array_equal(got.iterations, want.iterations)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12)

    @pytest.mark.parametrize(
        "build, coil_size, pattern_lines",
        [(build_row_systems, 16, 20), (sense_operator, 16, 12), (sense_operator, 12, 16),
         (monolithic, 20, 16), (monolithic, 16, 12)],
        ids=["rows-pattern-20", "operator-pattern-12", "operator-coils-12",
             "monolithic-coils-20", "monolithic-pattern-12"],
    )
    def test_grid_mismatch(self, build, coil_size, pattern_lines):
        ph = make_phantom("smooth-blobs", 16, 16, seed=0)
        coils = make_coils(4, coil_size, coil_size, seed=0)
        pat = SamplingPattern(num_lines=pattern_lines, accel=2, acs_lines=4)
        with pytest.raises(ShapeMismatch):
            build(ph, coils, pat)


# 26 readout lines; a fixed epsilon near the largest double makes the bounds
# of some or all of them leave the float range
OVERFLOW_CFG = {"grid": {"h": 32, "w": 32, "seed": 1}, "coils": {"seed": 1},
                "pattern": {"accel": 4, "acs": 6}, "noise": {"sigma": 0.01, "seed": 1}}


class TestPipeline:
    def test_noiseless_zero_epsilon_pinches(self):
        # noiseless data with a zero tolerance: the interval collapses
        # onto the true image
        cfg = {
            "grid": {"h": 12, "w": 12, "preset": "smooth-blobs", "seed": 1},
            "coils": {"l": 4, "phase_fold": True, "seed": 1},
            "pattern": {"accel": 2, "acs": 4},
            "noise": {"sigma": 0.0, "seed": 0},
            "epsilon": {"mode": "fixed", "value": 0.0},
        }
        res = run_pipeline(cfg)
        sup = res.truth.support_mask
        truth_re = res.truth.grid.real
        np.testing.assert_allclose(res.maps["lower_re"][sup], truth_re[sup], atol=1e-7)
        np.testing.assert_allclose(res.maps["upper_re"][sup], truth_re[sup], atol=1e-7)

    def test_truth_containment_oracle_epsilon(self):
        cfg = {
            "grid": {"h": 16, "w": 16, "preset": "shepp-like", "seed": 2},
            "coils": {"l": 4, "phase_fold": True, "seed": 2},
            "pattern": {"accel": 2, "acs": 4},
            "noise": {"sigma": 0.01, "seed": 3},
            "epsilon": {"mode": "oracle"},
        }
        res = run_pipeline(cfg)
        sup = res.truth.support_mask
        finite = (res.status == STATUS_FINITE) & sup
        assert finite.any()
        slack = 1e-10
        assert np.all(res.maps["lower_re"][finite] <= res.truth.grid.real[finite] + slack)
        assert np.all(res.maps["upper_re"][finite] >= res.truth.grid.real[finite] - slack)
        assert np.all(res.maps["lower_im"][finite] <= res.truth.grid.imag[finite] + slack)
        assert np.all(res.maps["upper_im"][finite] >= res.truth.grid.imag[finite] - slack)

    def test_dominance_and_statuses(self):
        res = run_pipeline(
            {
                "grid": {"h": 16, "w": 16, "preset": "smooth-blobs", "seed": 0},
                "coils": {"l": 4, "phase_fold": True, "seed": 0},
                "pattern": {"accel": 2, "acs": 4},
                "noise": {"sigma": 0.01, "seed": 0},
            }
        )
        sup = res.truth.support_mask
        assert np.all(res.status[sup] == STATUS_FINITE)
        assert np.all(res.status[~sup] == STATUS_OFF_SUPPORT)
        ok = np.isfinite(res.maps["kappa_entry"]) & np.isfinite(res.maps["kappa_line"])
        assert ok.any()
        assert np.all(
            res.maps["kappa_entry"][ok] <= res.maps["kappa_line"][ok] * (1 + 1e-10)
        )
        assert np.all(
            res.maps["sensitivity"][ok] <= res.maps["global_envelope"][ok] * (1 + 1e-10)
        )

    def test_extremal_images_hit_bounds(self):
        cfg = {
            "grid": {"h": 12, "w": 12, "preset": "smooth-blobs", "seed": 1},
            "coils": {"l": 4, "phase_fold": True, "seed": 1},
            "pattern": {"accel": 2, "acs": 4},
            "noise": {"sigma": 0.005, "seed": 2},
            "epsilon": {"mode": "oracle"},
            "extremal": {"line": 6},
        }
        res = run_pipeline(cfg)
        line = 6
        cols = np.flatnonzero(
            res.truth.support_mask[line] & (res.status[line] == STATUS_FINITE)
        )
        assert cols.size > 0
        for c in cols:
            up = res.maps["extremal_upper"][line, c]
            assert up == pytest.approx(res.maps["upper_re"][line, c], abs=1e-8)
            lo = res.maps["extremal_lower"][line, c]
            assert lo == pytest.approx(res.maps["lower_re"][line, c], abs=1e-8)

    @pytest.mark.parametrize(
        "cfg", [{"coils": {"l": 1}}, {"pattern": {"accel": 16, "acs": 0}}], ids=["one-coil", "accel-16"]
    )
    def test_underdetermined_lines_skipped(self, cfg):
        res = run_pipeline(cfg)
        sup = res.truth.support_mask
        skipped = {s["line"]: s for s in res.line_stats if "skipped" in s}
        assert 0 < len(skipped) < len(res.line_stats)
        for c in range(sup.shape[1]):
            col = res.status[sup[:, c], c]
            if c in skipped:
                stats = skipped[c]
                assert stats["m"] <= stats["n"] or stats["rank"] < stats["n"]
                assert "M > N" in stats["skipped"] and stats["epsilon"] is None
                assert np.all(col == STATUS_UNDETERMINED)
                for name in ("lower_re", "upper_im", "diff_lower", "sensitivity", "kappa_entry"):
                    assert np.all(np.isnan(res.maps[name][:, c])), name
            else:
                assert np.all(col == STATUS_FINITE)

    @pytest.mark.parametrize("mode", ["fixed", "heuristic"])
    def test_factor_paths_count_bounded_lines(self, mode):
        """One coil at accel 2 on 16 x 16 has tall full-rank lines (M >= 2N),
        full-rank lines below that shape, and wide rank-deficient ones: the
        first go down the triangle path, the others the SVD.  A fixed
        epsilon bounds every line; the heuristic one skips the rank-deficient
        lines, which then count on no path."""
        cfg = SVD_PATH_CFG if mode == "fixed" else {**SVD_PATH_CFG, "epsilon": {"mode": mode}}
        res = run_pipeline(cfg)
        bounded = [s for s in res.line_stats if "skipped" not in s]
        deficient = [s for s in bounded if s["rank"] < s["n"]]
        triangle = sum(s["m"] >= 2 * s["n"] and s["rank"] == s["n"] for s in bounded)
        assert res.factor_paths == {"triangle": triangle, "svd": len(bounded) - triangle}
        assert triangle > 0 and len(bounded) - triangle > len(deficient)
        assert len(deficient) > 0 if mode == "fixed" else not deficient

    @pytest.mark.parametrize("eps, n_skipped", [(1e307, 18), (4e307, 24)])
    def test_overflowing_lines_skipped(self, eps, n_skipped):
        """A line whose bounds leave the float range is skipped alone.  At
        4e307, 4 of the skipped lines overflow only in their difference
        bounds, and their entrywise bounds are left unwritten with the rest
        of their maps.  Every other line is bounded exactly as on its own."""
        cfg = {**OVERFLOW_CFG, "epsilon": {"mode": "fixed", "value": eps}}
        res = run_pipeline(cfg)
        truth, coils, pat = build_problem(cfg)
        data = simulate_acquisition(truth, coils, pat, 0.01, 1)
        systems = build_row_systems(truth, coils, pat, data)
        assert sum("skipped" in stats for stats in res.line_stats) == n_skipped
        for rs, stats in zip(systems, res.line_stats, strict=True):
            c, sup, n = rs.line_index, rs.voxel_rows, rs.n_sup
            col = {name: grid[:, c] for name, grid in res.maps.items() if "truth" not in name}
            if "skipped" in stats:
                assert "finite" in stats["skipped"] and stats["epsilon"] == eps
                assert np.all(res.status[sup, c] == STATUS_UNDETERMINED)
                assert all(np.isnan(v).all() for v in col.values()), c
                continue
            eb = bounds_for(LinearSystem(a=rs.a_complex, b=rs.b_complex, epsilon=eps))
            np.testing.assert_array_equal(res.status[sup, c], eb.status[:n])
            for name, want in (("lower_re", eb.lower[:n]), ("upper_re", eb.upper[:n]),
                               ("lower_im", eb.lower[n:]), ("upper_im", eb.upper[n:])):
                np.testing.assert_array_equal(col[name][sup], want, err_msg=name)

    @pytest.mark.parametrize("scale, reached", [(1e-308, "rank"), (1e-310, None)],
                             ids=["conditioning", "factorization"])
    def test_degenerate_line_skipped_alone(self, monkeypatch, scale, reached):
        """Coil maps scaled at one readout position put its line at the edge
        of the float range: at 1e-308 its entrywise sensitivities overflow in
        ``condition_report``, at 1e-310 sigma_1 < 2**-1024 fails its
        factorization.  That line alone is skipped, with NaN maps and the
        stats it reached, and every other line is bounded as without the
        scaling."""
        cfg, c = {"grid": {"h": 16, "w": 16}}, 5
        want = run_pipeline(cfg)
        make = sense.make_coils

        def scaled(*args, **kwargs):
            coils = make(*args, **kwargs)
            coils[:, :, c] *= scale
            return coils

        monkeypatch.setattr(sense, "make_coils", scaled)
        got = run_pipeline(cfg)
        skipped = [s for s in got.line_stats if "skipped" in s]
        assert [s["line"] for s in skipped] == [c] and "float range" in skipped[0]["skipped"]
        stats = skipped[0]
        assert (stats["rank"] is not None) == (reached == "rank")
        assert stats["sigma_max"] is stats["kappa"] is stats["epsilon"] is None
        sup = got.truth.support_mask[:, c]
        assert np.all(got.status[sup, c] == STATUS_UNDETERMINED)
        other = np.arange(16) != c
        np.testing.assert_array_equal(got.status[:, other], want.status[:, other])
        for name, grid in got.maps.items():
            if "truth" not in name:
                assert np.isnan(grid[:, c]).all(), name
            ref = want.maps[name][:, other]
            np.testing.assert_array_equal(np.isnan(grid[:, other]), np.isnan(ref), err_msg=name)
            ok = ~np.isnan(ref)
            scale_of = float(np.max(np.abs(ref[ok]), initial=0.0))
            assert np.max(np.abs(grid[:, other][ok] - ref[ok]), initial=0.0) <= 1e-12 * scale_of, name
        for s, t in zip(got.line_stats, want.line_stats, strict=True):
            if s is not stats:
                assert s.keys() == t.keys() and s == pytest.approx(t, rel=1e-12), s["line"]

    def test_rank_zero_line_unbounded(self, monkeypatch):
        """A line whose coil maps are zero has rank 0: under a fixed epsilon
        every entry on it is unbounded, and it has no spectral envelope."""
        make = sense.make_coils

        def zeroed(*args, **kwargs):
            coils = make(*args, **kwargs)
            coils[:, :, 5] = 0.0
            return coils

        monkeypatch.setattr(sense, "make_coils", zeroed)
        res = run_pipeline({"grid": {"h": 16, "w": 16}, "epsilon": {"mode": "fixed", "value": 1.0}})
        sup = res.truth.support_mask[:, 5]
        assert not any("skipped" in s for s in res.line_stats)
        assert res.line_stats[[s["line"] for s in res.line_stats].index(5)]["rank"] == 0
        assert np.all(res.status[sup, 5] == sense.STATUS_UNBOUNDED)
        assert np.isnan(res.maps["global_envelope"][:, 5]).all()
        assert np.isfinite(res.maps["global_envelope"][res.truth.support_mask[:, 4], 4]).all()

    def test_every_line_overflowing_raises(self):
        with pytest.raises(NumericalFailure, match="no line could be bounded"):
            run_pipeline({**OVERFLOW_CFG, "epsilon": {"mode": "fixed", "value": 1e308}})

    def test_build_problem_folds_phase(self):
        cfg = {"grid": {"h": 12, "w": 10, "seed": 3}, "coils": {"l": 3, "seed": 1}}
        ph, coils, pat = build_problem(cfg)
        raw = make_phantom("smooth-blobs", 12, 10, seed=3)
        np.testing.assert_array_equal(ph.support_mask, raw.support_mask)
        np.testing.assert_array_equal(ph.grid, np.abs(raw.grid))
        want = make_coils(3, 12, 10, phase_fold=True, seed=1, phantom=raw)
        np.testing.assert_array_equal(coils, want)
        assert (pat.num_lines, pat.accel, pat.acs_lines) == (12, 4, 6)

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ConfigError):
            run_pipeline({"grids": {}})
        with pytest.raises(ConfigError):
            run_pipeline({"grid": {"hh": 3}})
        with pytest.raises(ConfigError):
            run_pipeline({"epsilon": {"mode": "fixed"}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 10**400],
                             ids=["nan", "inf", "negative", "huge-int"])
    def test_bad_fixed_epsilon_rejected(self, value, monkeypatch):
        """A fixed epsilon that is negative or not finite is rejected with the
        config, before anything is built."""
        monkeypatch.setattr(sense, "build_problem", None)
        with pytest.raises(ConfigError, match="epsilon.value"):
            run_pipeline({"epsilon": {"mode": "fixed", "value": value}})


# One coil at accel 2 on 16 x 16 under a fixed epsilon: triangle lines, and
# full-rank and rank-deficient lines on the SVD path.
SVD_PATH_CFG = {"grid": {"h": 16, "w": 16}, "coils": {"l": 1}, "pattern": {"accel": 2, "acs": 2},
                "epsilon": {"mode": "fixed", "value": 1.0}}

# `sense --pgm` at 32 x 32: each run's exit code, skipped lines and output
# hashes (29 files) are pinned in GOLDEN_SENSE
GOLDEN_SENSE_CASES = {
    "heuristic-seed1": {"grid": {"seed": 1}, "coils": {"seed": 1}, "noise": {"seed": 1}},
    "heuristic-seed3": {"grid": {"seed": 3}, "coils": {"seed": 3}, "noise": {"seed": 3}},
    "oracle": {"epsilon": {"mode": "oracle"}},
    "fixed-0.05": {"epsilon": {"mode": "fixed", "value": 0.05}},
    # every line on the SVD path
    "svd-path": {**SVD_PATH_CFG, "grid": {"h": 32, "w": 32}},
    "overflow-1e307": {**OVERFLOW_CFG, "epsilon": {"mode": "fixed", "value": 1e307}},
}
GOLDEN_SENSE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_sense_hashes.json")


def golden_sense_record(tmp_path, cfg) -> dict:
    """What GOLDEN_SENSE keeps of a ``sense --pgm`` run on ``cfg``: the exit
    code, the skipped lines, the manifest's ``outputs`` hashes, and the
    SHA-256 of the manifest without its timings."""
    cfg_path, outdir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir), "--pgm"])
    manifest = json.loads((outdir / "manifest.json").read_text())
    untimed = {k: v for k, v in manifest.items() if k not in ("timings", "wall_clock_s")}
    return {"exit_code": code, "lines_skipped": manifest["lines_skipped"],
            "outputs": manifest["outputs"],
            "manifest": hashlib.sha256(mio.json_text(untimed).encode()).hexdigest()}


@pytest.mark.parametrize("case", sorted(GOLDEN_SENSE_CASES))
def test_sense_outputs_are_golden(tmp_path, case):
    """Every ``sense --pgm`` output keeps its bytes.  The hashes belong to
    the numpy and OpenBLAS build the fixture names; the map values behind
    them are checked against the public kernel and the lifted reference
    above."""
    with open(GOLDEN_SENSE) as fh:
        golden = json.load(fh)
    got = golden_sense_record(tmp_path, GOLDEN_SENSE_CASES[case])
    assert len(got["outputs"]) == 29
    assert got == golden["cases"][case], (golden["numpy"], golden["openblas"])


LIFTED_CASES = {
    "heuristic": {"grid": {"h": 24, "w": 20, "seed": 2}, "coils": {"l": 5, "seed": 1},
                  "pattern": {"accel": 2, "acs": 4}, "noise": {"sigma": 0.01, "seed": 3}},
    "complex-truth-fixed": {"grid": {"h": 24, "w": 20, "preset": "shepp-like"},
                            "coils": {"l": 4, "phase_fold": False},
                            "pattern": {"accel": 2, "acs": 4}, "noise": {"sigma": 0.01, "seed": 0},
                            "epsilon": {"mode": "fixed", "value": 0.2}, "extremal": {"line": 7}},
}


def lifted_reference(cfg, res):
    """The maps of ``run_pipeline`` rebuilt from each line's real-lifted
    system (``rs.system``), with the pipeline's epsilon rule."""
    truth, coils, pat = build_problem(cfg)
    data = simulate_acquisition(truth, coils, pat, cfg["noise"]["sigma"], cfg["noise"]["seed"])
    h, w = truth.shape
    maps = {name: np.full((h, w), np.nan) for name in res.maps}
    maps["truth_re"], maps["truth_im"] = truth.grid.real, truth.grid.imag
    status = np.full((h, w), STATUS_OFF_SUPPORT)
    line = cfg.get("extremal", {}).get("line", h // 2)
    systems = build_row_systems(truth, coils, pat, data)
    assert [s["line"] for s in res.line_stats] == [rs.line_index for rs in systems]
    for rs, stats in zip(systems, res.line_stats):
        f = svd_truncated(rs.system.a)
        c, sup, n = rs.line_index, rs.voxel_rows, rs.n_sup
        assert (stats["m"], stats["n"], stats["rank"]) == (*rs.system.shape, f.rank)
        if "epsilon" not in cfg:
            eps = epsilon_heuristic(rs.system)
            assert stats["epsilon"] == pytest.approx(eps, rel=1e-12)
        else:
            eps = stats["epsilon"]
        sys_ = LinearSystem(a=rs.system.a, b=rs.system.b, epsilon=eps)
        rep = condition_report(sys_)
        eb = bounds_for(sys_)
        status[sup, c] = eb.status[:n]
        for part, cols in (("re", slice(None, n)), ("im", slice(n, None))):
            maps[f"lower_{part}"][sup, c] = eb.lower[cols]
            maps[f"upper_{part}"][sup, c] = eb.upper[cols]
        maps["sensitivity"][sup, c] = eb.sensitivity[:n]
        maps["kappa_entry"][sup, c] = rep.kappa_entry[:n]
        maps["global_envelope"][sup, c] = 1.0 / rep.sigma_min_pos
        maps["kappa_line"][sup, c] = rep.kappa_global
        nb = np.flatnonzero(np.diff(sup) == 1)
        db = bounds_for(sys_, difference_rows(2 * n, np.column_stack([nb, nb + 1])))
        maps["diff_lower"][sup[nb], c] = db.lower
        maps["diff_upper"][sup[nb], c] = db.upper
        j = np.flatnonzero(sup == line)
        if j.size and eb.status[j[0]] == STATUS_FINITE:
            wvec = np.zeros(2 * n)
            wvec[j[0]] = 1.0
            for tgt, name in ((Target.UPPER, "extremal_upper"), (Target.LOWER, "extremal_lower")):
                maps[name][sup, c] = extremal_solution(sys_, wvec, tgt).x[:n]
    return maps, status


class TestLiftedReference:
    @pytest.mark.parametrize("case", sorted(LIFTED_CASES))
    def test_pipeline_matches_lifted_systems(self, case):
        cfg = LIFTED_CASES[case]
        res = run_pipeline(cfg)
        maps, status = lifted_reference(cfg, res)
        np.testing.assert_array_equal(res.status, status)
        assert np.count_nonzero(status == STATUS_FINITE) > 0
        for name, want in maps.items():
            got = res.maps[name]
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
            ok = ~np.isnan(want)
            assert ok.any(), name
            scale = float(np.max(np.abs(want[ok])))
            assert np.max(np.abs(got[ok] - want[ok])) <= 1e-12 * scale, name

    def test_one_factorization_and_projection_per_line(self, monkeypatch):
        counts = dict.fromkeys(["factor", "qr", "values", "inverse", "svd", "apply", "rows"], 0)
        shapes = {"qr": [], "values": []}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if key in shapes:
                    shapes[key].append(args[0].shape)
                return fn(*args, **kwargs)
            return wrapper

        real_svd = np.linalg.svd

        def svd(a, *args, compute_uv=True, **kwargs):
            key = "svd" if compute_uv else "values"
            return counted(key, real_svd)(a, *args, compute_uv=compute_uv, **kwargs)

        def no_lifting(*args):
            raise AssertionError("the pipeline lifted a line system")

        monkeypatch.setattr(bounds, "_factor", counted("factor", bounds._factor))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "inv", counted("inverse", np.linalg.inv))
        monkeypatch.setattr(bounds, "svd_truncated", counted("svd", bounds.svd_truncated))
        monkeypatch.setattr(bounds._Factored, "apply", counted("apply", bounds._Factored.apply))
        monkeypatch.setattr(bounds, "_row_products", counted("rows", bounds._row_products))
        monkeypatch.setattr(lifting, "lift_system", no_lifting)
        # the second case has lines whose pinned voxel is off the support
        for case in ("heuristic", "complex-truth-fixed"):
            counts.update(dict.fromkeys(counts, 0))
            for v in shapes.values():
                v.clear()
            res = run_pipeline(LIFTED_CASES[case])
            lines = len(res.line_stats)
            # one row pass for the entries and one for the differences; both
            # extremal vectors come from the coordinate row of the pinned voxel
            pinned = np.isfinite(res.maps["extremal_upper"]).any(axis=0)[
                [s["line"] for s in res.line_stats]]
            n_pinned = int(np.count_nonzero(pinned))
            # every line is full rank with M >= 2N: one QR of [A | b], the
            # singular values and the inverse of its N x N triangle, and no
            # singular vectors; A^+ applied once for A^+ b, once for the step of
            # both extremal vectors
            assert all(s["m"] >= 2 * s["n"] and s["rank"] == s["n"] for s in res.line_stats)
            assert counts == {"factor": lines, "qr": lines, "values": lines, "inverse": lines,
                              "svd": 0, "apply": lines + n_pinned, "rows": 2 * lines}
            assert pinned.any()
            assert shapes["qr"] == [(s["m"] // 2, s["n"] // 2 + 1) for s in res.line_stats]
            assert shapes["values"] == [(s["n"] // 2, s["n"] // 2) for s in res.line_stats]
        assert not pinned.all()


@pytest.mark.parametrize("cfg", [*(LIFTED_CASES[k] for k in sorted(LIFTED_CASES)), SVD_PATH_CFG],
                         ids=[*sorted(LIFTED_CASES), "one-coil-svd"])
def test_line_maps_are_the_public_kernel_bit_for_bit(cfg):
    """Each line's extremal and difference columns are, bit for bit, those
    of ``extremal_solution`` on the pinned unit vector and of
    ``adjacent_difference_bounds`` on the line's own complex system."""
    res = run_pipeline(cfg)
    line = cfg.get("extremal", {}).get("line", res.truth.shape[0] // 2)
    paths = set()
    for rs, stats in zip(acquired_lines(cfg), res.line_stats, strict=True):
        if "skipped" in stats:
            continue
        c, sup, n = rs.line_index, rs.voxel_rows, rs.n_sup
        sys_ = LinearSystem(a=rs.a_complex, b=rs.b_complex, epsilon=stats["epsilon"])
        nb = np.flatnonzero(np.diff(sup) == 1)
        db = bounds.adjacent_difference_bounds(sys_, np.column_stack([nb, nb + 1]))
        for name, end in (("diff_lower", "lower"), ("diff_upper", "upper")):
            want = [np.nan if getattr(b, end) is None else getattr(b, end) for b in db]
            np.testing.assert_array_equal(res.maps[name][sup[nb], c], want, err_msg=name)
        j = np.flatnonzero(sup == line)
        if not (j.size and res.status[line, c] == STATUS_FINITE):
            assert np.isnan(res.maps["extremal_upper"][:, c]).all()
            continue
        paths.add(sys_._factored().path)
        w = np.zeros(n)
        w[j[0]] = 1.0
        for name, target in (("extremal_upper", Target.UPPER), ("extremal_lower", Target.LOWER)):
            want = extremal_solution(sys_, w, target).x.real
            np.testing.assert_array_equal(res.maps[name][sup, c], want, err_msg=name)
    assert paths == ({"triangle", "svd"} if cfg is SVD_PATH_CFG else {"triangle"})


def acquired_lines(cfg):
    """``build_row_systems`` over the data the pipeline acquires for ``cfg``."""
    truth, coils, pat = build_problem(cfg)
    noise = {"sigma": 0.01, "seed": 0, **cfg.get("noise", {})}
    data = simulate_acquisition(truth, coils, pat, noise["sigma"], noise["seed"])
    return build_row_systems(truth, coils, pat, data)


class TestStreamedLines:
    @pytest.mark.parametrize("case", sorted(LIFTED_CASES))
    def test_pipeline_streams_the_listed_systems(self, case, monkeypatch):
        cfg = LIFTED_CASES[case]
        streamed, stream = [], sense._line_systems

        def recorded(*args):
            for rs in stream(*args):
                streamed.append(rs)
                yield rs

        monkeypatch.setattr(sense, "_line_systems", recorded)
        res = run_pipeline(cfg)
        monkeypatch.undo()
        systems = acquired_lines(cfg)
        # the grid has readout positions without support, which both skip
        assert 0 < len(systems) < cfg["grid"]["w"]
        assert len(streamed) == len(systems)
        for got, want in zip(streamed, systems):
            assert got.line_index == want.line_index
            for name in ("voxel_rows", "a_complex", "b_complex"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name
        assert [s["line"] for s in res.line_stats] == [rs.line_index for rs in systems]

    def test_line_stage_holds_one_line(self):
        """The pipeline's traced peak stays well below the bytes of all its
        line systems together: each line is released before the next one
        is built."""
        cfg = {"grid": {"h": 96, "w": 96}}
        all_lines = sum(rs.a_complex.nbytes + rs.b_complex.nbytes
                        for rs in acquired_lines(cfg))
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_lines / 2, (peak, all_lines)
