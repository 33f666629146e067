import numpy as np
import pytest

from entrybounds import (
    LinearSystem,
    bounds_for,
    condition_report,
    core,
    entrywise_bounds,
    epsilon_heuristic,
    extremal_solution,
    lifting,
    pinv_apply,
    sense,
    svd_truncated,
)
from entrybounds.bounds import Target, difference_rows
from entrybounds.errors import ConfigError, ShapeMismatch, UnknownPreset
from entrybounds.matfree import adjoint_mismatch
from entrybounds.sense import (
    STATUS_FINITE,
    STATUS_OFF_SUPPORT,
    STATUS_UNDETERMINED,
    CoilSet,
    Phantom,
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
        np.testing.assert_array_equal(coils.profiles[0], np.ones((8, 8)))

    def test_no_coil_blind_voxels(self):
        ph = make_phantom("smooth-blobs", 16, 16, seed=2)
        coils = make_coils(8, 16, 16, seed=2)
        combined = np.sum(np.abs(coils.profiles) ** 2, axis=0)
        assert np.all(combined[ph.support_mask] > 0.0)

    def test_smoothness_cap(self):
        coils = make_coils(8, 16, 16, seed=0)
        for prof in coils.profiles:
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
            f = svd_truncated(rs.system.a)
            sol = pinv_apply(f, rs.system.b)
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
            f = svd_truncated(rs.system.a)
            from entrybounds import condition_report

            rep = condition_report(f)
            np.testing.assert_allclose(rep.kappa_entry, 1.0, atol=1e-10)
            sys = LinearSystem(a=f, b=rs.system.b, epsilon=0.3)
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
        from entrybounds import residual_projection_norm

        for rs in build_row_systems(ph, coils, pat, data):
            f = svd_truncated(rs.system.a)
            assert residual_projection_norm(f, rs.system.b) <= 1e-8

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
        np.testing.assert_allclose(op.apply(x), a_dense @ x, atol=1e-10)
        np.testing.assert_allclose(op.apply_transpose(y), a_dense.T @ y, atol=1e-10)
        truth = ph.grid[ph.support_mask]
        np.testing.assert_allclose(
            sys.b, a_dense @ np.concatenate([truth.real, truth.imag]), atol=1e-10
        )

    @pytest.mark.parametrize(
        "build, coil_size, pattern_lines",
        [(build_row_systems, 16, 20), (sense_operator, 16, 12), (sense_operator, 12, 16)],
        ids=["rows-pattern-20", "operator-pattern-12", "operator-coils-12"],
    )
    def test_grid_mismatch(self, build, coil_size, pattern_lines):
        ph = make_phantom("smooth-blobs", 16, 16, seed=0)
        coils = make_coils(4, coil_size, coil_size, seed=0)
        pat = SamplingPattern(num_lines=pattern_lines, accel=2, acs_lines=4)
        with pytest.raises(ShapeMismatch):
            build(ph, coils, pat)


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

    def test_build_problem_folds_phase(self):
        cfg = {"grid": {"h": 12, "w": 10, "seed": 3}, "coils": {"l": 3, "seed": 1}}
        ph, coils, pat = build_problem(cfg)
        raw = make_phantom("smooth-blobs", 12, 10, seed=3)
        np.testing.assert_array_equal(ph.support_mask, raw.support_mask)
        np.testing.assert_array_equal(ph.grid, np.abs(raw.grid))
        want = make_coils(3, 12, 10, phase_fold=True, seed=1, phantom=raw)
        np.testing.assert_array_equal(coils.profiles, want.profiles)
        assert (pat.num_lines, pat.accel, pat.acs_lines) == (12, 4, 6)

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ConfigError):
            run_pipeline({"grids": {}})
        with pytest.raises(ConfigError):
            run_pipeline({"grid": {"hh": 3}})
        with pytest.raises(ConfigError):
            run_pipeline({"epsilon": {"mode": "fixed"}})


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
            eps = epsilon_heuristic(f, rs.system.b)
            assert stats["epsilon"] == pytest.approx(eps, rel=1e-12)
        else:
            eps = stats["epsilon"]
        sys_ = LinearSystem(a=f, b=rs.system.b, epsilon=eps)
        rep = condition_report(f)
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
        counts = {"svd": 0, "residual": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def no_lifting(*args):
            raise AssertionError("the pipeline lifted a line system")

        monkeypatch.setattr(sense, "svd_truncated", counted("svd", sense.svd_truncated))
        monkeypatch.setattr(core, "residual_projection_norm",
                            counted("residual", core.residual_projection_norm))
        monkeypatch.setattr(lifting, "lift_system", no_lifting)
        res = run_pipeline(LIFTED_CASES["heuristic"])
        assert counts == {"svd": len(res.line_stats), "residual": len(res.line_stats)}
