"""Failure paths: every preset turns a numerical failure into a failure record
(exit 1, summary.json written, partial CSV kept), config mistakes exit 2 with
the field named, and corrupt snapshots raise SnapshotError."""

import json
import re
import tracemalloc
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from casimirlab import Field1D, Field2D, Grid1D, Grid2D, cli
from casimirlab import dynamics as dyn
from casimirlab import ion_kdv as ik
from casimirlab.cli import (
    _GRID_KEYS, _RULES, MAX_GRID_POINTS, PRESETS, ConfigError, RunConfig, SnapshotError,
    load_snapshot, main, parse_config, save_snapshot,
)
from casimirlab.field_core import random_band_limited_2d
from casimirlab.poisson import State

BLOWUP_2D = ("grid.n=8", "dt=0.5", "t_end=50.0")

# (preset, --set overrides that make it fail, where the failure happens):
# 'step' inside the time loop, 'setup' outside it, 'check' a failed check
FAILURES = [
    ("euler2d", (*BLOWUP_2D, "initial.amplitude=50"), "step"),
    ("rmhd2d", (*BLOWUP_2D, "initial.omega_modes=[[1,1,50,0]]"), "step"),
    ("phantom2", (*BLOWUP_2D, "initial.omega_amplitude=50"), "step"),
    ("phantom3", (*BLOWUP_2D, "initial.omega_amplitude=50"), "step"),
    ("singular_leaf", (*BLOWUP_2D, "initial.omega_amplitude=50"), "step"),
    # the density drops below its floor
    ("ionacoustic1d",
     ("grid.n=16", "initial.modes=[1]", "initial.amplitude=0.9", "t_end=5.0"), "step"),
    # a watched functional meets a non-finite product
    ("kdv_soliton", ("grid.n=128", "dt=0.5", "t_end=50"), "step"),
    # the orbit batch steps through the one time loop, so its blow-up names the step
    ("finitedim", ("dt=2.0", "t_end=40"), "step"),
    ("kernel_deficit", ("grid.n=8", "initial.zeta_modes=[[1,0,1e200,0.0]]"), "setup"),
    ("jacobi_check", ("initial.step=1e-300",), "check"),
    # the Jacobi cyclic sum overflows
    ("jacobi_check", ("initial.step=1e200",), "setup"),
]

# presets that step in time from dt to t_end
STEPPING = ("euler2d", "rmhd2d", "phantom2", "phantom3", "singular_leaf",
            "ionacoustic1d", "kdv_soliton", "finitedim")


def run_cli(tmp_path, preset, *sets):
    out = tmp_path / preset
    argv = ["run", preset, "--out-dir", str(out)]
    for s in sets:
        argv += ["--set", s]
    return main(argv), out


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_forced_failure_writes_failure_record(preset, tmp_path, capsys):
    cases = [(sets, where) for name, sets, where in FAILURES if name == preset]
    assert cases, f"no forced-failure case for preset {preset}"
    for i, (sets, where) in enumerate(cases):
        check_failure_record(tmp_path / str(i), preset, sets, where)


def check_failure_record(root, preset, sets, where):
    code, out = run_cli(root, preset, *sets)
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    failure = summary["failure"]
    if where == "check":
        assert failure is None
        assert not all(c["passed"] for c in summary["checks"])
        return
    assert failure["message"]
    if where == "setup":
        assert failure["step"] is None
        return
    assert isinstance(failure["step"], int) and failure["step"] >= 1
    rows = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert rows[0].startswith("t,") and len(rows) >= 2
    assert float(rows[-1].split(",")[0]) <= failure["step"] * summary["config"]["dt"]


# the kind of State each preset writes as its last finite state; finitedim steps a
# bare point batch and writes none, and ionacoustic1d writes its first listed mode
STATE_KIND = {"euler2d": "vortex1", "rmhd2d": "vortex2", "phantom2": "vortex2",
              "phantom3": "vortex3", "singular_leaf": "vortex2", "kdv_soliton": "kdv",
              "ionacoustic1d": "ion"}


@pytest.mark.parametrize("preset", STEPPING)
def test_blowup_keeps_the_last_finite_state(preset, tmp_path, capsys):
    ((sets, _),) = [(sets, where) for name, sets, where in FAILURES
                    if name == preset and where == "step"]
    code, out = run_cli(tmp_path, preset, *sets)
    assert code == 1
    path = out / "state_last_finite.snap"
    if preset not in STATE_KIND:
        assert not path.exists()
        return
    state = load_snapshot(path)
    assert state.kind == STATE_KIND[preset]
    assert all(np.isfinite(p.values).all() for p in state.parts)


def test_failure_at_step_0_keeps_the_initial_state(tmp_path, capsys):
    code, out = run_cli(tmp_path, "euler2d", "initial.amplitude=1e153", "t_end=0.1")
    assert code == 1
    (omega,) = load_snapshot(out / "state_last_finite.snap").parts
    expected = random_band_limited_2d(Grid2D(64, 64), 4, np.random.default_rng(12), 1e153)
    assert np.array_equal(omega.values, expected.values)


@pytest.mark.parametrize(
    "preset, sets, field",
    [
        ("euler2d", ("initial=null",), "initial"),
        ("euler2d", ("grid=5",), "grid"),
        ("finitedim", ("grid=5",), "grid"),
        *[(p, (f"grid.{k}={v}",), f"grid.{k}")
          for p in ("kdv_soliton", "ionacoustic1d")
          for k, v in (("nx", 32), ("ny", 32), ("lx", 1.0), ("ly", 1.0))],
        # the initial density 1 + a cos(kx) must stay positive
        ("ionacoustic1d", ("initial.amplitude=1.5",), "initial.amplitude"),
        # a repeated name would record twice into one column
        ("euler2d", ('watch=["energy","energy"]', "t_end=0.3"), "watch"),
        ("phantom2", ("seed=-1",), "seed"),
        ("phantom2", ("initial.psi_seeds=[101,-2]",), "initial.psi_seeds"),
        ("kdv_soliton", ("initial.x0=Infinity",), "initial.x0"),
        ("kdv_soliton", ("initial.x0=NaN",), "initial.x0"),
        ("rmhd2d", ("initial.psi_modes=[[1,0,NaN,0.0]]",), "initial.psi_modes"),
        ("euler2d", ("initial.amplitude=Infinity",), "initial.amplitude"),
        # 0.015 is one and a half steps of dt = 0.01
        ("euler2d", ("output_every=0.015",), "output_every"),
        # a watch list that judges nothing, and one for a preset with no watch catalog
        ("euler2d", ("watch=[]",), "watch"),
        ("phantom3", ("watch=[]",), "watch"),
        ("phantom3", ('watch=["energy"]',), "watch"),
        # presets that do not step in time take no time key
        ("jacobi_check", ("t_end=0.025",), "t_end"),
        ("jacobi_check", ("dt=0.01",), "dt"),
        ("kernel_deficit", ("output_every=0.1",), "output_every"),
        # a key the preset's defaults do not name changes nothing, so it is rejected
        ("rmhd2d", ("seed=3",), "seed"),
        ("kernel_deficit", ("seed=1",), "seed"),
        ("ionacoustic1d", ("seed=1",), "seed"),
        ("kdv_soliton", ("seed=1",), "seed"),
        ("finitedim", ("snapshot=true",), "snapshot"),
        ("ionacoustic1d", ("snapshot=true",), "snapshot"),
        ("jacobi_check", ("snapshot=true",), "snapshot"),
        ("finitedim", ("output_every=0.1",), "output_every"),
        # a mode above n // 3 is dropped by the flow's 2/3-rule dealiasing
        ("ionacoustic1d", ("initial.modes=[43]",), "initial.modes"),
        ("ionacoustic1d", ("initial.modes=[64]",), "initial.modes"),
        ("ionacoustic1d", ("grid.n=16", "initial.modes=[6]"), "initial.modes"),
        # a Taylor-Green start draws no random field, so neither key changes the run
        ("euler2d", ('initial.kind="taylor_green"', "seed=13"), "seed"),
        ("euler2d", ('initial.kind="taylor_green"', "initial.kmax=5"), "initial.kmax"),
        # a repeated mode would step once and report its checks twice
        ("ionacoustic1d", ("t_end=0.5", "initial.modes=[1,1]"), "initial.modes"),
        # equal seeds start both members equal, so the pair tests no phantom invariance
        ("phantom2", ("grid.n=16", "t_end=0.1", "initial.psi_seeds=[7,7]"), "initial.psi_seeds"),
        # a --set without '=', one that descends into a number, one whose object repeats a key
        ("euler2d", ("t_end",), "t_end"),
        ("euler2d", ("t_end.x=1",), "t_end.x"),
        ("euler2d", ('grid={"n": 32, "n": 64}',), "n"),
        # no directory can be made at a path holding a NUL byte
        ("jacobi_check", ('out_dir="a\\u0000b"',), "out_dir"),
        # a non-integer mode number is periodic on no box
        ("rmhd2d", ("initial.psi_modes=[[1.5,0,1.0,0.0]]",), "initial.psi_modes"),
    ],
)
def test_config_mistake_exits_2_naming_field(preset, sets, field, tmp_path, capsys):
    code, _ = run_cli(tmp_path, preset, *sets)
    assert code == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_config_key_has_a_rule(preset):
    spec = PRESETS[preset]
    keys = {f.name for f in fields(RunConfig)} | set(spec.defaults)
    keys |= set(spec.defaults["initial"]) | set(_GRID_KEYS[spec.grid])
    assert keys <= set(_RULES), sorted(keys - set(_RULES))


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not_utf8"])
def test_unreadable_config_file_exits_2_naming_it(content, tmp_path, capsys):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = main(["run", "euler2d", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_out_dir_that_is_or_lies_under_a_file_exits_2(below, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code = main(["run", "jacobi_check", "--out-dir", str(afile / below)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'out_dir'" in err and "Traceback" not in err
    assert afile.read_text() == "kept\n"


# config files main rejects: (file text, None for no file; what the error names)
BAD_CONFIG_FILES = {
    "not-found": (None, "config.json"),
    "top-level-list": ("[1, 2]", "config.json"),
    "no-preset": ('{"t_end": 1.0}', "'preset'"),
    "t_end-twice": ('{"preset": "euler2d", "t_end": 1.0, "t_end": 2.0}', "'t_end'"),
    "grid.n-twice": ('{"preset": "euler2d", "grid": {"n": 32, "n": 64}}', "'n'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_bad_config_file_exits_2_naming_it(case, tmp_path, capsys):
    text, named = BAD_CONFIG_FILES[case]
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err
    if case != "no-preset":  # run names its preset itself
        out = tmp_path / "out"
        assert main(["run", "euler2d", "--config", str(path), "--out-dir", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_set_value_that_is_not_json_is_taken_as_a_string():
    cfg = parse_config(preset="kernel_deficit", sets=("initial.xi=identity",))
    assert cfg.initial["xi"] == "identity"


@pytest.mark.parametrize("preset", STEPPING)
def test_t_end_must_be_whole_steps(preset, tmp_path, capsys):
    dt = PRESETS[preset].defaults["dt"]
    code, out = run_cli(tmp_path, preset, f"t_end={2.5 * dt!r}")
    assert code == 2
    assert "'t_end'" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_integral_at_t0_fails_at_step_0(tmp_path, capsys):
    # finite vorticity whose energy sum overflows, in the t = 0 sample
    code, out = run_cli(tmp_path, "euler2d", "initial.amplitude=1e153", "t_end=0.1")
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert summary["failure"]["step"] == 0
    assert "NonFiniteError" in summary["failure"]["message"]


def test_blowup_prints_no_runtime_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "finitedim", "dt=2.0", "t_end=40")
    assert code == 1
    assert json.loads((out / "summary.json").read_text())["failure"]["step"] >= 1


def test_ion_grid_beyond_the_float64_floor_exits_2(tmp_path, capsys):
    # solve_phi's residual cannot reach its 1e-12 tolerance here, so the run
    # would die at step 0; the config is rejected before it starts
    code, out = run_cli(tmp_path, "ionacoustic1d", "grid.n=1024", "initial.amplitude=0.3",
                        "initial.modes=[1]", "t_end=0.1")
    assert code == 2
    err = capsys.readouterr().err
    assert "'grid.n'" in err and "'initial.amplitude'" in err
    assert not (out / "summary.json").exists()


def test_run_too_short_for_frequency_fails_check(tmp_path, capsys):
    code, out = run_cli(tmp_path, "ionacoustic1d", "grid.n=16", "initial.modes=[1]", "t_end=2.0")
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] is None and summary["pass"] is False
    check = {c["name"]: c for c in summary["checks"]}["dispersion_rel_error_k1"]
    assert not check["passed"]
    assert "too short" in check["note"]


def test_damped_ion_flow_fails_the_wave_energy_check(tmp_path, monkeypatch, capsys):
    # a -0.01 V damping takes 13% of the wave energy by t = 14, yet moves H by
    # 1e-10 of itself, which the energy drift checks do not see
    flow = ik.ion_flow

    def damped(grid, rho, v):
        out = flow(grid, rho, v)
        out[1] -= 0.01 * v
        return out

    monkeypatch.setattr(ik, "ion_flow", damped)
    code, out = run_cli(tmp_path, "ionacoustic1d", "grid.n=16", "dt=0.05", "t_end=14.0")
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] is None
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert failed == ["wave_energy_rel_drift_k1", "wave_energy_rel_drift_k2"]
    assert "[FAIL] wave_energy_rel_drift_k1" in capsys.readouterr().out


@pytest.mark.parametrize("amplitude", ["1e-7", "1e-9"])
def test_wave_below_the_float64_resolution_of_h_passes_the_wave_energy_check(amplitude, tmp_path,
                                                                              capsys):
    # one ulp of H is a quarter of the wave energy at 1e-7, and the wave energy
    # computes as 0.0 at 1e-9: the check's divisor is floored at what H resolves
    code, out = run_cli(tmp_path, "ionacoustic1d", "grid.n=16", "dt=0.05", "t_end=14.0",
                        f"initial.amplitude={amplitude}")
    checks = json.loads((out / "summary.json").read_text())["checks"]
    wave = [c for c in checks if c["name"].startswith("wave_energy_rel_drift")]
    assert len(wave) == 2 and all(c["passed"] for c in wave), wave


def refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number (RFC 8259)")


def test_summary_is_strict_json(tmp_path, capsys):
    # the dispersion error of a run too short to measure a frequency is infinite
    code, out = run_cli(tmp_path, "ionacoustic1d", "grid.n=16", "initial.modes=[1]", "t_end=2.0")
    assert code == 1
    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse_constant)
    check = {c["name"]: c for c in summary["checks"]}["dispersion_rel_error_k1"]
    assert check["value"] == "inf" and check["passed"] is False


@pytest.mark.parametrize("value, text", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")])
def test_non_finite_check_value_is_written_as_a_string(value, text):
    d = cli.Check("c", value, 1.0, "<=").as_dict()
    assert d["value"] == text
    json.loads(json.dumps(d, allow_nan=False), parse_constant=refuse_constant)


def refused_allocation(*args, **kwargs):
    # far beyond any address space, so numpy's MemoryError comes at once, with no memory used
    np.empty(1 << 60, dtype=np.uint8)


@pytest.mark.parametrize("preset", STEPPING)
def test_failed_allocation_in_a_step_writes_failure_record(preset, tmp_path, monkeypatch, capsys):
    real_step, calls = dyn.step, []

    def step(*args):
        calls.append(None)
        if len(calls) == 3:
            refused_allocation()
        return real_step(*args)

    monkeypatch.setattr(dyn, "step", step)
    sets = ("grid.n=8",) if PRESETS[preset].grid is Grid2D else ()
    check_failure_record(tmp_path, preset, sets, "step")
    summary = json.loads((tmp_path / preset / "summary.json").read_text())
    assert summary["failure"]["message"].startswith("MemoryError at step ")


@pytest.mark.parametrize("preset", ["euler2d", "ionacoustic1d", "kernel_deficit"])
def test_failed_allocation_at_setup_writes_failure_record(preset, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_grid", refused_allocation)
    check_failure_record(tmp_path, preset, (), "setup")
    summary = json.loads((tmp_path / preset / "summary.json").read_text())
    assert summary["failure"]["message"].startswith("MemoryError: Unable to allocate")
    assert not (tmp_path / preset / "diagnostics.csv").exists()


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

finite_values = st.floats(allow_nan=False, allow_infinity=False)
lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
sizes = st.integers(4, 8).map(lambda h: 2 * h)


@st.composite
def states(draw):
    kind = draw(st.sampled_from(["finite", "ion", "kdv", "vortex1", "vortex2", "vortex3"]))
    if kind == "finite":
        return State(kind, (draw(arrays(np.float64, st.integers(1, 6), elements=finite_values)),))
    if kind in ("ion", "kdv"):
        grid, field_type = Grid1D(draw(sizes), draw(lengths)), Field1D
        shape = (grid.n,)
    else:
        grid = Grid2D(draw(sizes), draw(sizes), draw(lengths), draw(lengths))
        field_type, shape = Field2D, grid.shape
    count = {"ion": 2, "kdv": 1, "vortex1": 1, "vortex2": 2, "vortex3": 3}[kind]
    return State(kind, tuple(
        field_type(grid, draw(arrays(np.float64, shape, elements=finite_values)))
        for _ in range(count)
    ))


def values(part):
    return part if isinstance(part, np.ndarray) else part.values


SNAP_SETTINGS = settings(max_examples=40, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@SNAP_SETTINGS
@given(state=states())
def test_snapshot_round_trip(state, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(path, state)
    back = load_snapshot(path)
    assert back.kind == state.kind
    if state.kind != "finite":
        assert back.parts[0].grid == state.parts[0].grid
    for a, b in zip(state.parts, back.parts):
        assert np.array_equal(values(a), values(b))


def corrupt_payload(raw, data):
    header_end = raw.index(b"\nend\n") + 5
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(1, len(raw) - header_end), label="bytes cut")
        return raw[: len(raw) - cut]
    return raw + data.draw(st.binary(min_size=1, max_size=64), label="bytes added")


def corrupt_header(raw, data):
    header_end = raw.index(b"\nend\n") + 5
    lines = raw[:header_end].decode("ascii").split("\n")[:-1]
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    action = data.draw(st.sampled_from(["drop", "garble", "kind"]), label="action")
    if action == "drop":
        del lines[i]
    elif action == "garble":
        word = data.draw(st.text("xyz.-", min_size=1, max_size=8), label="word")
        lines[i] = lines[i].split(" ")[0] + " " + word + " " + word
    else:
        kind = data.draw(st.text("abcxyz", min_size=1, max_size=8), label="kind")
        lines = [f"kind {kind}" if ln.startswith("kind ") else ln for ln in lines]
    return ("\n".join(lines) + "\n").encode("ascii") + raw[header_end:]


@SNAP_SETTINGS
@given(state=states(), data=st.data())
def test_corrupt_snapshot_raises_snapshot_error(state, data, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(path, state)
    raw = path.read_bytes()
    corrupt = data.draw(st.sampled_from([corrupt_payload, corrupt_header]), label="defect")
    bad = corrupt(raw, data)
    path.write_bytes(bad)
    with pytest.raises(SnapshotError):
        load_snapshot(path)


@pytest.mark.parametrize("state,grid_line", [
    (State("kdv", (Field1D.zeros(Grid1D(16)),)), "grid1d 16 inf"),
    (State("vortex1", (Field2D.zeros(Grid2D(8, 8)),)), "grid2d 8 8 inf 1.0"),
], ids=["grid1d", "grid2d"])
def test_infinite_domain_length_raises_snapshot_error(state, grid_line, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(path, state)
    head, sep, payload = path.read_bytes().partition(b"\nend\n")
    tag = grid_line.split(" ")[0] + " "
    lines = [grid_line if ln.startswith(tag) else ln for ln in head.decode("ascii").split("\n")]
    assert grid_line in lines
    path.write_bytes("\n".join(lines).encode("ascii") + sep + payload)
    with pytest.raises(SnapshotError, match="finite"):
        load_snapshot(path)


# header edits of a vortex1 file on the 8 x 8 grid of side 2 pi, each of which
# the reader rejects; the respelled numbers parse to the values written
HEADER_EDITS = {
    "kind-repeated": lambda lines: lines[:2] + lines[1:],
    "unknown-line": lambda lines: lines + ["colour blue"],
    "stray-grid1d": lambda lines: lines[:3] + ["grid1d 8 6.283185307179586"] + lines[3:],
    "size-spelled-otherwise": lambda lines: [ln.replace("grid2d 8 8", "grid2d 0_8 8")
                                             for ln in lines],
    "length-spelled-otherwise": lambda lines: [
        ln.replace("8 8 6.283185307179586", "8 8 6.2831853071795862") for ln in lines],
    "reordered": lambda lines: [lines[0], lines[1], lines[3], lines[2]],
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_header_other_than_the_writers_raises_snapshot_error(edit, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(path, State("vortex1", (Field2D.zeros(Grid2D(8, 8)),)))
    head, sep, payload = path.read_bytes().partition(b"\nend\n")
    lines = HEADER_EDITS[edit](head.decode("ascii").split("\n"))
    assert lines != head.decode("ascii").split("\n")
    path.write_bytes("\n".join(lines).encode("ascii") + sep + payload)
    with pytest.raises(SnapshotError):
        load_snapshot(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_payload_raises_snapshot_error(bad, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(path, State("finite", (np.array([bad, 1.0]),)))
    with pytest.raises(SnapshotError, match="non-finite"):
        load_snapshot(path)


@pytest.mark.parametrize("length", ["1e-155", "1e-200", "1e-320"])
def test_ion_domain_too_small_for_the_floor_exits_2(length, tmp_path, capsys):
    # the squared wavenumbers overflow, so the floor bound is NaN: rejected, not accepted
    # or raised through (OverflowError)
    with pytest.raises(cli.ConfigError, match="'grid.l'"):
        cli.parse_config(preset="ionacoustic1d", sets=(f"grid.l={length}",))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "ionacoustic1d", f"grid.l={length}")
    assert code == 2
    err = capsys.readouterr().err
    assert "'grid.l'" in err and "'grid.n'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("length", ["1e-9", "1e-10", "1e-20"])
def test_ion_domain_on_which_the_closure_fails_exits_2(length, tmp_path, capsys):
    # the floor bound tends to a constant as grid.l shrinks, so it passes these;
    # the initial closure solve does not converge on them
    with pytest.raises(cli.ConfigError, match="'grid.l'"):
        cli.parse_config(preset="ionacoustic1d", sets=(f"grid.l={length}",))
    code, out = run_cli(tmp_path, "ionacoustic1d", f"grid.l={length}")
    assert code == 2
    err = capsys.readouterr().err
    assert "'grid.l'" in err and "'grid.n'" in err and "Traceback" not in err
    assert not out.exists()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "ionacoustic1d", "grid": {"l": float(length)}}))
    assert main(["validate", "--config", str(path)]) == 2
    assert "'grid.l'" in capsys.readouterr().err


@pytest.mark.parametrize("sets", [(), ("grid.l=1e-6",)], ids=["defaults", "l-1e-6"])
def test_ion_domain_on_which_the_closure_converges_is_accepted(sets):
    assert cli.parse_config(preset="ionacoustic1d", sets=sets).preset == "ionacoustic1d"


# the top-level keys each preset takes besides preset, grid, initial and out_dir
TOP_LEVEL_KEYS = {
    "euler2d": {"dt", "t_end", "output_every", "seed", "snapshot", "watch"},
    "rmhd2d": {"dt", "t_end", "output_every", "snapshot", "watch"},
    "phantom2": {"dt", "t_end", "output_every", "seed", "snapshot"},
    "phantom3": {"dt", "t_end", "output_every", "seed", "snapshot"},
    "kernel_deficit": {"snapshot"},
    "singular_leaf": {"dt", "t_end", "output_every", "seed", "snapshot"},
    "finitedim": {"dt", "t_end", "seed"},
    "ionacoustic1d": {"dt", "t_end", "output_every"},
    "kdv_soliton": {"dt", "t_end", "output_every", "snapshot"},
    "jacobi_check": {"seed"},
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_takes_exactly_its_top_level_keys(preset):
    # set each echoed key to its echoed value: a key the preset takes is accepted,
    # and any other (null in the echo) is an unknown key
    taken = set()
    for key, value in asdict(parse_config(preset=preset)).items():
        try:
            parse_config(preset=preset, sets=(f"{key}={json.dumps(value)}",))
        except ConfigError as exc:
            assert value is None and f"unknown config key '{key}'" in str(exc)
        else:
            taken.add(key)
    assert taken == {"preset", "grid", "initial", "out_dir"} | TOP_LEVEL_KEYS[preset]


def test_failed_allocation_in_the_ion_config_check_exits_2(tmp_path, monkeypatch, capsys):
    # a grid too large for memory fails where the check builds the initial densities
    monkeypatch.setattr(Grid1D, "x", refused_allocation)
    code, out = run_cli(tmp_path, "ionacoustic1d")
    assert code == 2
    err = capsys.readouterr().err
    assert "'grid.n'" in err and "Traceback" not in err
    assert not out.exists()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "ionacoustic1d"}))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'grid.n'" in err and "Traceback" not in err


# every top-level, grid.* and initial.* key some preset takes, and names none takes
CONFIG_KEYS = sorted(
    {"preset", "out_dir", "frobnicate", "grid.nz", "initial.solitons"}
    | {f"grid.{k}" for keys in _GRID_KEYS.values() for k in keys}
    | {k for spec in PRESETS.values() for k in spec.defaults}
    | {f"initial.{k}" for spec in PRESETS.values() for k in spec.defaults["initial"]}
)


def defaults_at(key):
    """Every preset's default value at a dotted key, so that valid values are drawn too."""
    head, _, tail = key.partition(".")
    section = (spec.defaults.get(head, {}) if tail else spec.defaults for spec in PRESETS.values())
    return [s[tail or head] for s in section if (tail or head) in s]


def json_values(ints):
    keys = st.sampled_from(["n", "l", "nx", "modes", "amplitude"]) | st.text(max_size=4)
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=6,
    )


@settings(max_examples=300, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), key=st.sampled_from(CONFIG_KEYS), data=st.data())
def test_any_value_at_any_key_parses_or_names_the_key(preset, key, data):
    # grid integers stay small: an ion grid below the point ceiling is allocated
    # by the ion check; the property below draws them up to 2**40
    ints = st.integers(-2**12, 2**12) if key.startswith("grid") else st.integers()
    value = data.draw(st.sampled_from(defaults_at(key) or [None]) | json_values(ints), label="value")
    try:
        cfg = parse_config(preset=preset, sets=(f"{key}={json.dumps(value)}",))
    except ConfigError as exc:
        assert re.search(f"'{re.escape(key)}[.']", str(exc)), str(exc)
    else:
        assert isinstance(cfg, RunConfig)
        # a runner reads every initial key and the grid keys its defaults name
        assert set(cfg.initial) == set(PRESETS[preset].defaults["initial"])
        assert set(cfg.grid) >= set(PRESETS[preset].defaults.get("grid", {}))
        assert "." in key or key in {"preset", "grid", "initial", "out_dir"} | TOP_LEVEL_KEYS[preset]


def test_set_object_merges_into_the_defaults():
    # as a file's object does: replacing would drop the keys the runner reads
    cfg = parse_config(preset="kdv_soliton", sets=('initial={"c": 2.0}', "grid={}"))
    assert cfg.initial == {"c": 2.0, "x0": 10.0} and cfg.grid == {"n": 512, "l": 40.0}


@pytest.mark.parametrize("preset, n, accepted", [
    ("euler2d", 100000000, False), ("euler2d", 1026, False), ("euler2d", 1024, True),
    ("kdv_soliton", 2097152, False),
])
def test_grid_above_the_point_ceiling_exits_2_before_allocating(preset, n, accepted, tmp_path,
                                                                capsys):
    # through parse_config and validate, never run: a run would allocate the grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": preset, "grid": {"n": n}}))
    if accepted:
        assert parse_config(preset=preset, sets=(f"grid.n={n}",)).grid["n"] == n
        assert main(["validate", "--config", str(path)]) == 0
        return
    refused = f"'grid.n' = {n}: .* above the limit of {MAX_GRID_POINTS}"
    with pytest.raises(ConfigError, match=refused):
        parse_config(preset=preset, sets=(f"grid.n={n}",))
    assert main(["validate", "--config", str(path)]) == 2
    assert "'grid.n'" in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(preset=st.sampled_from(sorted(p for p, spec in PRESETS.items() if spec.grid)),
       data=st.data())
def test_any_grid_integer_parses_or_names_the_key(preset, data):
    # a grid the ceiling refuses is refused before anything allocates on it
    keys = _GRID_KEYS[PRESETS[preset].grid]
    key = data.draw(st.sampled_from(["grid", *(f"grid.{k}" for k in keys)]), label="key")
    # even sizes, which pass the key rule and meet the ceiling, and any integer;
    # the key grid takes an object of them
    ints = st.integers(0, 2**39).map(lambda h: 2 * h) | st.integers(-2**40, 2**40)
    if key == "grid":
        ints = st.dictionaries(st.sampled_from(keys), ints, max_size=3)
    value = data.draw(ints, label="value")
    tracemalloc.start()
    try:
        parse_config(preset=preset, sets=(f"{key}={json.dumps(value)}",))
    except ConfigError as exc:
        assert re.search(f"'{re.escape(key)}[.']", str(exc)), str(exc)
        if f"above the limit of {MAX_GRID_POINTS}" in str(exc):
            assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
