"""CLI tests: strict config validation, preset execution with artifacts,
CSV bit-reproducibility, snapshot round trips, and the console entry."""

import json
import subprocess
import sys

import numpy as np
import pytest

from casimirlab import Field1D, Field2D, Grid1D, Grid2D
from casimirlab.cli import (
    ConfigError,
    PRESETS,
    load_snapshot,
    main,
    parse_config,
    run_preset,
    save_snapshot,
)
from casimirlab.poisson import State


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "euler2d", "grid": {"n": 32}, "dt": 0.01, "t_end": 1}))
        cfg = parse_config(path=str(path))
        assert cfg.preset == "euler2d"
        assert cfg.grid["n"] == 32
        assert cfg.initial["kmax"] == 4  # default preserved

    def test_unknown_preset_names_catalog(self):
        with pytest.raises(ConfigError, match="euler2d"):
            parse_config(preset="euler3d")

    def test_negative_dt_cites_field(self):
        with pytest.raises(ConfigError, match="'dt'"):
            parse_config(preset="euler2d", sets=("dt=-0.1",))

    def test_unknown_key_rejected_strict(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(preset="euler2d", sets=("frobnicate=1",))

    def test_unknown_initial_key_rejected(self):
        with pytest.raises(ConfigError, match="initial.solitons"):
            parse_config(preset="kdv_soliton", sets=("initial.solitons=2",))

    def test_unknown_watch_rejected(self):
        with pytest.raises(ConfigError, match="watch"):
            parse_config(preset="euler2d", sets=('watch=["vorticity_flux"]',))

    @pytest.mark.parametrize("preset", ["euler2d", "rmhd2d"])
    def test_watch_takes_exactly_the_catalog_names(self, preset, tmp_path):
        names = list(PRESETS[preset].catalog())
        others = {n for p in PRESETS.values() if p.catalog for n in p.catalog()} - set(names)
        for name in names:
            assert parse_config(preset=preset, sets=(f'watch=["{name}"]',)).watch == [name]
        for name in sorted(others) + ["vorticity_flux", "Energy", ""]:
            with pytest.raises(ConfigError, match="'watch'"):
                parse_config(preset=preset, sets=(f'watch=["{name}"]',))
        # the runner watches the same catalog: every name runs into its own column
        sets = ("grid.n=8", f"t_end={PRESETS[preset].defaults['dt']}",
                f"watch={json.dumps(names[::-1])}")
        run_preset(parse_config(preset=preset, sets=sets, out_dir_flag=str(tmp_path)))
        header = (tmp_path / "diagnostics.csv").read_text().split("\n")[0]
        assert header.split(",")[1:] == [PRESETS[preset].catalog()[n][0].label for n in names[::-1]]

    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "euler2d", "dt": 0.01}))
        cfg = parse_config(path=str(path), sets=("dt=0.02", "grid.n=16"))
        assert cfg.dt == 0.02 and cfg.grid["n"] == 16

    def test_preset_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "euler2d"}))
        with pytest.raises(ConfigError, match="mismatch"):
            parse_config(preset="kdv_soliton", path=str(path))

    def test_odd_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(preset="euler2d", sets=("grid.n=33",))

    def test_initial_type_mismatch_cites_field(self):
        with pytest.raises(ConfigError, match="initial.c"):
            parse_config(preset="kdv_soliton", sets=('initial.c="fast"',))
        with pytest.raises(ConfigError, match="initial.c"):
            parse_config(preset="kdv_soliton", sets=("initial.c=-1",))
        with pytest.raises(ConfigError, match="initial.n_orbits"):
            parse_config(preset="finitedim", sets=("initial.n_orbits=7",))
        with pytest.raises(ConfigError, match="initial.xi"):
            parse_config(preset="kernel_deficit", sets=('initial.xi="sinh"',))
        with pytest.raises(ConfigError, match="initial.psi_modes"):
            parse_config(preset="rmhd2d", sets=('initial.psi_modes=[[1,0,1.0]]',))

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CASIMIRLAB_OUT_DIR", str(tmp_path / "env"))
        cfg = parse_config(preset="euler2d")
        assert cfg.out_dir == str(tmp_path / "env")
        cfg = parse_config(preset="euler2d", out_dir_flag=str(tmp_path / "flag"))
        assert cfg.out_dir == str(tmp_path / "flag")


VORTEX_CHECKS = ["energy_rel_drift", "enstrophy_rel_drift"]

# (preset, --set overrides, every check the preset declares, in order): a short
# run of each preset that passes all of its checks
PASSING = [
    ("euler2d", ("grid.n=16", "t_end=0.1"), VORTEX_CHECKS),
    ("euler2d", ("grid.n=16", "t_end=0.1", 'initial.kind="taylor_green"'), VORTEX_CHECKS),
    ("rmhd2d", ("grid.n=16", "dt=0.01", "t_end=0.1"),
     ["energy_rel_drift", "cross_helicity_drift", "flux_sq_rel_drift", "enstrophy_growth"]),
    ("phantom2", ("grid.n=16", "t_end=0.1"), ["omega_max_divergence", "omega_bitwise_identical"]),
    ("phantom3", ("grid.n=16", "t_end=0.1"), ["psi_pair_max_divergence", "flux_pair_rel_drift"]),
    ("singular_leaf", ("grid.n=16", "t_end=0.1"),
     ["leaf_indicator_max", "on_leaf_at_end", "interior_enstrophy_rel_drift",
      "interior_residual_on_leaf", "interior_residual_off_leaf"]),
    ("finitedim", ("t_end=0.2",),
     ["loops_sign_conserved", "loops_y_eps_drift_max", "wells_sign_conserved",
      "wells_y_eps_drift_max", "closedness_nu_x_eps_0.05", "closedness_nu_y_eps_0.05",
      "closedness_nu_x_eps_0.1", "closedness_nu_y_eps_0.1", "closedness_nu_x_eps_0.5",
      "closedness_nu_y_eps_0.5"]),
    ("ionacoustic1d", ("grid.n=16", "dt=0.05", "t_end=14.0"),
     ["dispersion_rel_error_k1", "energy_rel_drift_k1", "mass_rel_drift_k1", "momentum_drift_k1",
      "dispersion_rel_error_k2", "energy_rel_drift_k2", "mass_rel_drift_k2", "momentum_drift_k2",
      "wave_energy_rel_drift_k1", "wave_energy_rel_drift_k2"]),
    ("kdv_soliton", ("grid.n=128", "t_end=0.1"),
     ["soliton_linf_error", "mass_drift", "momentum_rel_drift", "energy_rel_drift"]),
    ("kernel_deficit", (),
     ["kernel_commutator", "cross_helicity_residual_identity", "cross_helicity_residual_square",
      "cross_helicity_residual_sin", "deficit_witness"]),
    ("jacobi_check", (), ["jacobi_canonical", "jacobi_x_scaled", "jacobi_so3", "jacobi_broken_so3"]),
]


class TestRunPreset:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_runs_to_a_pass(self, preset, tmp_path):
        cases = [(sets, checks) for name, sets, checks in PASSING if name == preset]
        assert cases, f"no passing case for preset {preset}"
        for i, (sets, checks) in enumerate(cases):
            csvs = []
            for rerun in ("a", "b"):
                code, out, summary = self.run(preset, tmp_path / f"{i}{rerun}", *sets)
                assert code == 0
                assert [c["name"] for c in summary["checks"]] == checks
                assert all(c["passed"] for c in summary["checks"])
                csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
            assert csvs[0] and csvs[0] == csvs[1]

    def run(self, preset, tmp_path, *sets):
        cfg = parse_config(preset=preset, sets=sets, out_dir_flag=str(tmp_path / preset))
        code = run_preset(cfg)
        out = tmp_path / preset
        summary = json.loads((out / "summary.json").read_text())
        return code, out, summary

    # a mode list names integer mode numbers on any box: every seeded mode, probe and
    # dispersion theory reads one wavenumber map, (2 pi / l) k
    @pytest.mark.parametrize("preset, sets", [
        ("ionacoustic1d", ("grid.n=16", "grid.l=20.0", "dt=0.05", "t_end=60.0")),
        ("rmhd2d", ("grid.n=16", "grid.l=10.0", "t_end=0.2")),
        ("kernel_deficit", ("grid.n=32", "grid.lx=10.0", "grid.ly=8.0")),
        ("euler2d", ("grid.n=16", "grid.l=10.0", "t_end=1.0", 'initial.kind="taylor_green"')),
        ("singular_leaf", ("grid.n=16", "grid.l=10.0", "t_end=0.5")),
    ])
    def test_preset_passes_on_a_box_other_than_2pi(self, preset, sets, tmp_path):
        code, _, summary = self.run(preset, tmp_path, *sets)
        assert code == 0, [c for c in summary["checks"] if not c["passed"]]

    def test_kdv_soliton_short(self, tmp_path):
        code, out, summary = self.run("kdv_soliton", tmp_path, "t_end=0.5", "output_every=0.1")
        assert code == 0 and summary["pass"]
        names = {c["name"]: c for c in summary["checks"]}
        assert names["soliton_linf_error"]["value"] <= 1e-3
        assert (out / "diagnostics.csv").exists()
        assert summary["functionals"]["kdv_mass"]["abs_drift"] <= 1e-12

    def test_phantom2_divergence_exactly_zero(self, tmp_path):
        code, out, summary = self.run("phantom2", tmp_path, "t_end=0.5")
        assert code == 0
        names = {c["name"]: c for c in summary["checks"]}
        assert names["omega_max_divergence"]["value"] == 0.0

    def test_rmhd2d_flags_expected_nonconservation(self, tmp_path):
        code, out, summary = self.run("rmhd2d", tmp_path, "t_end=0.2")
        assert code == 0
        names = {c["name"]: c for c in summary["checks"]}
        assert "non-conserved (expected)" in names["enstrophy_growth"]["note"]
        assert names["enstrophy_growth"]["value"] > 1e-4

    def test_jacobi_check_writes_table(self, tmp_path):
        code, out, summary = self.run("jacobi_check", tmp_path)
        assert code == 0
        table = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert table[0].startswith("case,")
        assert any("broken_so3" in row for row in table)

    def test_summary_has_contract_fields(self, tmp_path):
        code, out, summary = self.run("euler2d", tmp_path, "t_end=0.2")
        for key in ("preset", "config", "functionals", "checks", "pass", "wall_time_s"):
            assert key in summary
        assert summary["config"]["preset"] == "euler2d"

    def test_csv_bit_reproducible(self, tmp_path):
        cfg1 = parse_config(preset="euler2d", sets=("t_end=0.2",),
                            out_dir_flag=str(tmp_path / "a"))
        cfg2 = parse_config(preset="euler2d", sets=("t_end=0.2",),
                            out_dir_flag=str(tmp_path / "b"))
        assert run_preset(cfg1) == 0 and run_preset(cfg2) == 0
        b1 = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b2 = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert b1 == b2

    def test_seed_changes_series(self, tmp_path):
        cfg1 = parse_config(preset="euler2d", sets=("t_end=0.2", "seed=1"),
                            out_dir_flag=str(tmp_path / "a"))
        cfg2 = parse_config(preset="euler2d", sets=("t_end=0.2", "seed=2"),
                            out_dir_flag=str(tmp_path / "b"))
        run_preset(cfg1)
        run_preset(cfg2)
        b1 = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b2 = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert b1 != b2

    def test_snapshot_written_when_enabled(self, tmp_path):
        cfg = parse_config(preset="euler2d", sets=("t_end=0.1", "snapshot=true"),
                           out_dir_flag=str(tmp_path / "snap"))
        assert run_preset(cfg) == 0
        snap = tmp_path / "snap" / "state_final.snap"
        assert snap.exists()
        state = load_snapshot(snap)
        assert state.kind == "vortex1"

    def test_ion_mode_in_a_batch_matches_its_solo_run(self, tmp_path):
        # the modes step as members of one batch; each is bitwise its solo run
        short = ("grid.n=32", "t_end=0.5")
        self.run("ionacoustic1d", tmp_path / "pair", *short, "initial.modes=[1,2]")
        self.run("ionacoustic1d", tmp_path / "solo", *short, "initial.modes=[2]")
        batch = (tmp_path / "pair" / "ionacoustic1d" / "diagnostics_k2.csv").read_bytes()
        solo = (tmp_path / "solo" / "ionacoustic1d" / "diagnostics.csv").read_bytes()
        assert batch == solo

    def test_ion_batch_failure_stops_at_the_first_failing_mode(self, tmp_path):
        # mode 2 drops below the density floor at step 284 (mode 1 alone: 287);
        # the partial CSV is the first listed mode's series
        code, out, summary = self.run("ionacoustic1d", tmp_path, "grid.n=16",
                                      "initial.modes=[1,2]", "initial.amplitude=0.9", "t_end=5.0")
        assert code == 1 and summary["pass"] is False
        assert summary["failure"]["step"] == 284
        header = (out / "diagnostics.csv").read_text().split("\n")[0]
        assert header == "t,mode_cos_1,ion_energy,mass,momentum"

    # an artifact path that is a directory: the run exits 1 and summary.json names the file;
    # a numerical failure keeps its step and message, and its other artifacts are written
    @pytest.mark.parametrize("sets, step", [
        (("t_end=0.1",), None),
        (("grid.n=8", "dt=0.5", "t_end=50.0", "initial.amplitude=50"), int),
    ], ids=["completed", "blowup"])
    def test_an_unwritable_artifact_is_a_failure_record(self, sets, step, tmp_path):
        (tmp_path / "euler2d" / "diagnostics.csv").mkdir(parents=True)
        code, out, summary = self.run("euler2d", tmp_path, *sets)
        assert code == 1 and summary["pass"] is False
        failure = summary["failure"]
        *found, unwritten = failure["message"].split("; ")
        assert unwritten.startswith("cannot write diagnostics.csv: ")
        if step is None:
            assert failure["step"] is None and found == []
        else:
            assert isinstance(failure["step"], int) and len(found) == 1
            assert f" at step {failure['step']} " in found[0]
            assert (out / "state_last_finite.snap").is_file()


class TestSnapshots:
    def test_round_trip_2d(self, tmp_path):
        grid = Grid2D(16, 32, 1.5, 2.5)
        rng = np.random.default_rng(0)
        z = State("vortex2", (Field2D(grid, rng.standard_normal(grid.shape)),
                              Field2D(grid, rng.standard_normal(grid.shape))))
        path = tmp_path / "state.snap"
        save_snapshot(path, z)
        back = load_snapshot(path)
        assert back.kind == "vortex2"
        assert back.parts[0].grid == grid
        for a, b in zip(z.parts, back.parts):
            assert np.array_equal(a.values, b.values)

    def test_round_trip_1d_and_finite(self, tmp_path):
        g = Grid1D(32, 11.0)
        z = State("ion", (Field1D.full(g, 1.25), Field1D.full(g, -0.5)))
        save_snapshot(tmp_path / "ion.snap", z)
        back = load_snapshot(tmp_path / "ion.snap")
        assert back.parts[0].grid.l == 11.0
        assert np.array_equal(back.parts[1].values, z.parts[1].values)

        zf = State("finite", (np.array([0.25, -1.5]),))
        save_snapshot(tmp_path / "pt.snap", zf)
        assert np.array_equal(load_snapshot(tmp_path / "pt.snap").parts[0], zf.parts[0])

    @pytest.mark.parametrize("grid", [
        Grid1D(16, np.float64(40.0)),
        Grid2D(8, 16, np.float64(1.5), np.float32(2.5)),
    ])
    def test_round_trip_numpy_float_lengths(self, grid, tmp_path):
        field = Field1D if isinstance(grid, Grid1D) else Field2D
        z = State("vortex1" if field is Field2D else "kdv",
                  (field(grid, np.arange(float(np.prod(grid.shape))).reshape(grid.shape)),))
        path = tmp_path / "np.snap"
        save_snapshot(path, z)
        back = load_snapshot(path)
        assert back.parts[0].grid == grid
        assert np.array_equal(back.parts[0].values, z.parts[0].values)

    def test_integer_length_writes_a_float(self, tmp_path):
        g = Grid1D(8, 40)
        save_snapshot(tmp_path / "w.snap", State("kdv", (Field1D.zeros(g),)))
        assert b"grid1d 8 40.0\n" in (tmp_path / "w.snap").read_bytes()
        assert load_snapshot(tmp_path / "w.snap").parts[0].grid == g

    def test_payload_is_little_endian_float64(self, tmp_path):
        g = Grid1D(8, 1.0)
        z = State("kdv", (Field1D(g, np.arange(8.0)),))
        path = tmp_path / "w.snap"
        save_snapshot(path, z)
        raw = path.read_bytes()
        header_end = raw.index(b"end\n") + 4
        payload = np.frombuffer(raw[header_end:], dtype="<f8")
        assert np.array_equal(payload, np.arange(8.0))


class TestMainEntry:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "euler2d", "dt": -1}))
        assert main(["validate", "--config", str(path)]) == 2

    def test_validate_accepts_good_config(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(json.dumps({"preset": "jacobi_check"}))
        assert main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_run_unknown_preset_exit_2(self, capsys):
        assert main(["run", "euler3d"]) == 2
        assert "euler2d" in capsys.readouterr().err

    def test_run_via_main(self, tmp_path):
        code = main(["run", "jacobi_check", "--out-dir", str(tmp_path / "jc")])
        assert code == 0
        assert (tmp_path / "jc" / "summary.json").exists()

    def test_console_script_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "casimirlab.cli", "list-presets"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "kdv_soliton" in proc.stdout

    def test_python_dash_m_package(self):
        proc = subprocess.run(
            [sys.executable, "-m", "casimirlab", "list-presets"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "kdv_soliton" in proc.stdout
