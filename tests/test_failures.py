"""Failure paths: every preset turns a numerical failure into a failure record
(exit 1, summary.json written, partial CSV kept), config mistakes exit 2 with
the field named, and corrupt snapshots raise SnapshotError."""

import json
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from casimirlab import Field1D, Field2D, Grid1D, Grid2D, cli
from casimirlab import dynamics as dyn
from casimirlab.cli import (
    _GRID_KEYS, _RULES, PRESETS, RunConfig, SnapshotError, load_snapshot, main, save_snapshot,
)
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
