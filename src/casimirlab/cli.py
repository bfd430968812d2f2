"""Command-line front door: preset experiments with reproducible artifacts.

Each preset is fully determined by its config plus seed.  A run writes
``diagnostics.csv`` (floats printed with 17 significant digits, so re-running
an identical config yields a byte-identical file), ``summary.json`` (config
echo, per-functional initial/final/drift, pass/fail per threshold, wall
time, failure record), and optional state snapshots.  Exit status is 0 iff
all preset thresholds pass, 1 if a check fails or the run hits a numerical
failure, and 2 for a configuration error.

Config is a single JSON document; ``--set key=value`` flags override file
entries (dotted paths, values parsed as JSON when possible).  Validation is
strict: a preset's defaults name every key it accepts, and unknown keys or
values that break their rule are rejected with a field diagnostic.  The
output directory resolves as flag > config > $CASIMIRLAB_OUT_DIR >
./runs/<preset>.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from . import finitedim as fd
from . import ion_kdv as ik
from . import vortex as vx
from .field_core import (
    Field1D, Field2D, Grid1D, Grid2D, NumericalFailure, l2norm, random_band_limited_2d,
)
from .poisson import STATE_KINDS, State, casimir_residual, jacobi_residual

ENV_OUT_DIR = "CASIMIRLAB_OUT_DIR"


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


class SnapshotError(ConfigError):
    """A snapshot with a bad header, an unknown kind, or a payload of wrong length or not finite."""


# ---------------------------------------------------------------------------
# snapshots: text header + little-endian float64 payload
# ---------------------------------------------------------------------------

def save_snapshot(path, state: State):
    """Write a state: ASCII header lines, 'end', then raw '<f8' payloads.

    2D payloads are row-major by y then x, matching the in-memory layout.
    """
    names, part_type = STATE_KINDS[state.kind]
    g = getattr(state.parts[0], "grid", None)
    lines = ["casimirlab-snapshot 1", f"kind {state.kind}"]
    if part_type is None:
        lines.append(f"point {state.parts[0].size}")
    elif part_type is Field1D:
        lines.append(f"grid1d {g.n} {float(g.l)!r}")
    else:
        lines.append(f"grid2d {g.nx} {g.ny} {float(g.lx)!r} {float(g.ly)!r}")
    lines += ["fields " + " ".join(names), "end"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for p in state.parts:
            fh.write(np.ascontiguousarray(p.values if part_type else p, dtype="<f8").tobytes())


def load_snapshot(path) -> State:
    """Read a state written by save_snapshot.

    Raises SnapshotError for a missing or malformed header line, an unknown
    kind, a payload whose length differs from what the header declares, or
    a payload holding NaN or inf.
    """
    head, sep, payload = Path(path).read_bytes().partition(b"\nend\n")
    try:
        magic, *lines = head.decode("ascii").split("\n")
        if not sep or magic != "casimirlab-snapshot 1":
            raise ValueError("not a casimirlab snapshot")
        meta = {key: args for key, *args in map(str.split, lines)}
        (kind,) = meta["kind"]
        if kind not in STATE_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        names, part_type = STATE_KINDS[kind]
        if meta["fields"] != list(names):
            raise ValueError(f"'fields' header line does not list {' '.join(names)}")
        if part_type is None:
            (n,) = meta["point"]
            grid, shape = None, (int(n),)
        else:
            if part_type is Field1D:
                n, l = meta["grid1d"]
                grid = Grid1D(int(n), float(l))
            else:
                nx, ny, lx, ly = meta["grid2d"]
                grid = Grid2D(int(nx), int(ny), float(lx), float(ly))
            shape = grid.shape
        expected = 8 * len(names) * math.prod(shape)
        if len(payload) != expected:
            raise ValueError(f"payload has {len(payload)} bytes, the header declares {expected}")
        vals = np.frombuffer(payload, dtype="<f8").astype(float).reshape(len(names), *shape)
        if not np.isfinite(vals).all():
            raise ValueError("payload holds non-finite values")
        parts = vals if part_type is None else (part_type(grid, v) for v in vals)
        return State(kind, tuple(parts))
    except KeyError as exc:
        raise SnapshotError(f"snapshot {path}: missing header line {exc}") from exc
    except ValueError as exc:  # includes UnicodeDecodeError, FieldError and StateError
        raise SnapshotError(f"snapshot {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# What a config value must be, as (description, test), by key.  Every key of
# every preset's defaults has a rule here.
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0)
_MODE_LIST = (
    "a list of [kx, ky, amplitude, phase] entries",
    lambda v: isinstance(v, list)
    and all(isinstance(m, list) and len(m) == 4 and all(map(_is_number, m)) for m in v),
)
_RULES = {
    **dict.fromkeys(("grid", "initial"), ("an object", lambda v: isinstance(v, dict))),
    **dict.fromkeys(("dt", "t_end", "output_every", "l", "lx", "ly", "amplitude",
                     "omega_amplitude", "psi_amplitude", "c", "eps", "step"), _POSITIVE),
    **dict.fromkeys(("n", "nx", "ny"),
                    ("an even integer >= 8", lambda v: _is_int(v) and v >= 8 and v % 2 == 0)),
    **dict.fromkeys(("kmax", "omega_kmax", "psi_kmax"),
                    ("a positive integer", lambda v: _is_int(v) and v > 0)),
    **dict.fromkeys(("zeta_modes", "omega_modes", "psi_modes"), _MODE_LIST),
    **dict.fromkeys(("xi", "eta"), (f"a profile name ({', '.join(sorted(vx.PROFILES))})",
                                    lambda v: isinstance(v, str) and v in vx.PROFILES)),
    "preset": ("a preset name", lambda v: isinstance(v, str)),
    "watch": ("a non-empty list of distinct functional names", lambda v: v is None or (
        isinstance(v, list) and all(isinstance(w, str) for w in v) and 0 < len(set(v)) == len(v))),
    "out_dir": ("a directory path", lambda v: v is None or isinstance(v, str)),
    "snapshot": ("true or false", lambda v: isinstance(v, bool)),
    "n_orbits": ("an even integer >= 2", lambda v: _is_int(v) and v >= 2 and v % 2 == 0),
    "modes": ("a non-empty list of positive mode numbers",
              lambda v: isinstance(v, list) and len(v) > 0 and all(_is_int(k) and k > 0 for k in v)),
    "seed": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "psi_seeds": ("a list of two non-negative integer seeds",
                  lambda v: isinstance(v, list) and len(v) == 2
                  and all(_is_int(s) and s >= 0 for s in v)),
    "kind": ("'random' or 'taylor_green'", lambda v: v in ("random", "taylor_green")),
    "x0": ("a finite number", _is_number),
}

# the time keys: a preset that steps in time has a dt default, and one that
# does not takes none of them (they are null in its config echo)
_TIME_KEYS = ("dt", "t_end", "output_every")

# keys every config has before the preset defaults and the file are merged in
_BASE = {"grid": {}, "initial": {}, "watch": None, "out_dir": None, "snapshot": False}

# the grid keys each grid class takes; in 2-D, n and l set both axes and
# nx, ny, lx and ly override them
_GRID_KEYS = {None: (), Grid1D: ("n", "l"), Grid2D: ("n", "l", "nx", "ny", "lx", "ly")}


def _check_section(section: dict, known, where: str):
    """Reject keys not in known and values that break their rule."""
    for key, value in section.items():
        if key not in known:
            allowed = ", ".join(sorted(known)) or "none"
            raise ConfigError(f"unknown config key '{where}{key}' (allowed: {allowed})")
        what, ok = _RULES[key]
        if not ok(value):
            raise ConfigError(f"config field '{where}{key}': expected {what}, got {value!r}")


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _set_dotted(cfg: dict, dotted: str, raw_value: str):
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = cfg
    keys = dotted.split(".")
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path '{dotted}' descends into a non-object")
    node[keys[-1]] = value


@dataclass
class RunConfig:
    preset: str
    grid: dict
    dt: float
    t_end: float
    output_every: float
    seed: int
    initial: dict
    watch: list | None
    out_dir: str
    snapshot: bool

    def echo(self) -> dict:
        return asdict(self)


def parse_config(
    preset: str | None = None,
    path: str | None = None,
    sets: tuple[str, ...] = (),
    out_dir_flag: str | None = None,
) -> RunConfig:
    """Merge preset defaults, config file and --set overrides; validate strictly.

    The preset's defaults are its schema: they name every initial key it
    accepts, and its grid class names the grid keys.  t_end, and an
    output_every longer than dt, must be a whole number of dt steps; a preset
    with no dt default does not step and takes no time key (_TIME_KEYS).
    """
    file_cfg: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # a directory, not UTF-8, or not JSON
            raise ConfigError(f"config file {path}: not readable as UTF-8 JSON ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path}: top level must be a JSON object")

    name = preset or file_cfg.get("preset")
    if name is None:
        raise ConfigError("no preset given (positional argument or 'preset' config key)")
    if preset and "preset" in file_cfg and file_cfg["preset"] != preset:
        raise ConfigError(f"preset mismatch: command line says '{preset}', "
                          f"config says '{file_cfg['preset']}'")
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (valid presets: {', '.join(sorted(PRESETS))})")
    spec = PRESETS[name]

    cfg = _deep_merge(copy.deepcopy(_BASE | spec.defaults), file_cfg)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got '{item}'")
        key, _, value = item.partition("=")
        _set_dotted(cfg, key.strip(), value.strip())
    cfg["preset"] = name

    steps = "dt" in spec.defaults
    known = {f.name for f in fields(RunConfig)} | set(spec.defaults)
    _check_section(cfg, known if steps else known - set(_TIME_KEYS), "")
    _check_section(cfg["grid"], _GRID_KEYS[spec.grid], "grid.")
    _check_section(cfg["initial"], spec.defaults["initial"], "initial.")
    if steps:
        # an output_every shorter than dt samples every step
        for key in ("t_end", "output_every") if cfg.get("output_every", 0) > cfg["dt"] else ("t_end",):
            try:
                dyn.step_count(cfg[key], cfg["dt"])
            except (ValueError, OverflowError) as exc:  # OverflowError: the ratio is infinite
                raise ConfigError(f"config field '{key}': {exc}") from exc
        cfg.setdefault("output_every", cfg["dt"])
        for key in _TIME_KEYS:
            cfg[key] = float(cfg[key])
    else:
        cfg |= dict.fromkeys(_TIME_KEYS)
    if spec.check is not None:
        spec.check(cfg)
    if cfg["watch"] is not None and not spec.watch_names:
        raise ConfigError(f"config field 'watch': preset {name} has no watch catalog")
    unknown = sorted(set(cfg["watch"] or ()) - set(spec.watch_names))
    if unknown:
        raise ConfigError(f"unknown watch functional '{unknown[0]}' for preset {name} "
                          f"(available: {', '.join(spec.watch_names)})")

    out_dir = out_dir_flag or cfg["out_dir"] or os.environ.get(ENV_OUT_DIR) or Path("runs") / name
    return RunConfig(**cfg | {"out_dir": str(out_dir)})


def _grid(cfg: RunConfig) -> Grid1D | Grid2D:
    grid = dict(cfg.grid)
    grid_type = PRESETS[cfg.preset].grid
    if grid_type is Grid2D:
        for short, axes in (("n", ("nx", "ny")), ("l", ("lx", "ly"))):
            if short in grid:
                value = grid.pop(short)
                for axis in axes:
                    grid.setdefault(axis, value)
    return grid_type(**grid)


# ---------------------------------------------------------------------------
# checks and results
# ---------------------------------------------------------------------------


_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    op: str  # '<=', '>=', '=='
    note: str = ""

    @property
    def passed(self) -> bool:
        return _OPS[self.op](self.value, self.threshold)

    def as_dict(self) -> dict:
        d = {"name": self.name, "value": self.value, "op": self.op, "threshold": self.threshold,
             "passed": self.passed}
        if self.note:
            d["note"] = self.note
        return d


class Drift(NamedTuple):
    """A check on the series column of the functional it is paired with."""

    name: str
    measure: str  # 'abs' or 'rel' drift from the initial value, 'net' |final - initial|
    op: str
    threshold: float
    note: str = ""


def _drift_checks(series: dyn.DiagnosticSeries, pairs, suffix: str = "") -> list[Check]:
    """Judge each (functional, Drift) pair that carries a Drift on the functional's column."""
    checks = []
    for f, drift in pairs:
        if drift is not None:
            abs_drift, rel_drift = series.drift(f.label)
            net = abs(series.final(f.label) - series.initial(f.label))
            value = {"abs": abs_drift, "rel": rel_drift, "net": net}[drift.measure]
            checks.append(Check(drift.name + suffix, value, drift.threshold, drift.op, drift.note))
    return checks


@dataclass
class RunResult:
    checks: list[Check] = field(default_factory=list)
    series: dyn.DiagnosticSeries | None = None
    rows: list[dict] | None = None  # tabular CSV for presets without a time series
    extras: dict = field(default_factory=dict)
    extra_series: dict = field(default_factory=dict)  # mode number -> series
    snapshots: dict = field(default_factory=dict)


def _stepped(cfg: RunConfig, rhs, z0, pairs, divergence=None, scheme: str = "rk4"):
    """Step z0 to cfg.t_end by cfg.dt, sampling the functionals of the (functional,
    Drift | None) pairs every cfg.output_every; return the run.

    A divergence functional heads the series and is also taken after every
    step; its maximum over the steps then comes back beside the run.
    """
    watch = [f for f, _ in pairs]
    run = dyn.Trajectory(dyn.Integrator(scheme, cfg.dt), rhs, z0, cfg.t_end,
                         [divergence, *watch] if divergence else watch, cfg.output_every)
    if divergence:
        return run, max(map(divergence.value, run))
    for _ in run:
        pass
    return run


def _watched(cfg: RunConfig, catalog: dict) -> tuple[list, list]:
    """A catalog's watched pairs: in the config's order (series), in its own (checks)."""
    names = catalog if cfg.watch is None else cfg.watch
    return [catalog[n] for n in names], [p for n, p in catalog.items() if n in names]


# ---------------------------------------------------------------------------
# preset runners
# ---------------------------------------------------------------------------


def _run_euler2d(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    init = cfg.initial
    if init["kind"] == "taylor_green":
        amp = init["amplitude"]
        omega = Field2D.from_function(
            grid, lambda X, Y: amp * (np.sin(X) * np.sin(Y) + 0.5 * np.cos(2 * X))
        )
    else:
        rng = np.random.default_rng(cfg.seed)
        omega = random_band_limited_2d(grid, init["kmax"], rng, init["amplitude"])
    H = vx.euler_energy(1)
    watch, judged = _watched(cfg, {
        "energy": (H, Drift("energy_rel_drift", "rel", "<=", 1e-8)),
        "enstrophy": (vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"])),
                      Drift("enstrophy_rel_drift", "rel", "<=", 1e-8)),
    })
    run = _stepped(cfg, vx.vortex_rhs(1, H), vx.state_i(omega), watch)
    return RunResult(checks=_drift_checks(run.series, judged), series=run.series,
                     snapshots={"state_final": run.state})


def _run_rmhd2d(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    omega = vx.field_from_modes(grid, cfg.initial["omega_modes"])
    psi = vx.field_from_modes(grid, cfg.initial["psi_modes"])
    H = vx.rmhd_energy(2)
    watch, judged = _watched(cfg, {
        "energy": (H, Drift("energy_rel_drift", "rel", "<=", 1e-6)),
        "cross_helicity": (vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES["identity"])),
                           Drift("cross_helicity_drift", "abs", "<=", 1e-6)),
        "flux_sq": (vx.make_casimir(vx.CasimirSpec("flux", vx.PROFILES["square"])),
                    Drift("flux_sq_rel_drift", "rel", "<=", 1e-6)),
        "enstrophy": (vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2)),
                      Drift("enstrophy_growth", "net", ">=", 1e-4,
                            note="non-conserved (expected): generalized enstrophy is not a "
                            "Casimir once the flux function enters the Hamiltonian")),
    })
    run = _stepped(cfg, vx.vortex_rhs(2, H), vx.state_ii(omega, psi), watch)
    return RunResult(checks=_drift_checks(run.series, judged), series=run.series,
                     snapshots={"state_final": run.state})


def _run_phantom2(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    init = cfg.initial
    rng = np.random.default_rng(cfg.seed)
    omega = random_band_limited_2d(grid, init["omega_kmax"], rng, init["omega_amplitude"])
    seeds, psi_kmax, psi_amp = init["psi_seeds"], init["psi_kmax"], init["psi_amplitude"]
    za, zb = (vx.state_ii(omega, random_band_limited_2d(grid, psi_kmax, np.random.default_rng(s), psi_amp))
              for s in seeds)
    H = vx.euler_energy(2)
    divergence = vx.Functional("omega_max_divergence",
                               lambda pair: (pair[0].parts[0] - pair[1].parts[0]).max_abs())
    energy = vx.Functional("euler_energy", lambda pair: H.value(pair[0]))
    # both trajectories step in lockstep
    run, max_div = _stepped(cfg, vx.vortex_rhs(2, H), (za, zb), [(energy, None)], divergence)
    za, zb = run.state
    identical = np.array_equal(za.parts[0].values, zb.parts[0].values)
    checks = [
        Check("omega_max_divergence", max_div, 0.0, "==",
              note="phantom field cannot influence the actual field"),
        Check("omega_bitwise_identical", float(identical), 1.0, "=="),
    ]
    return RunResult(checks=checks, series=run.series, snapshots={"state_final": za},
                     extras={"steps": run.n_steps, "psi_seeds": seeds})


def _run_phantom3(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    init = cfg.initial
    rng = np.random.default_rng(cfg.seed)
    omega = random_band_limited_2d(grid, init["omega_kmax"], rng, init["omega_amplitude"])
    psi = random_band_limited_2d(grid, init["psi_kmax"], rng, init["psi_amplitude"])
    z0 = vx.state_iii(omega, psi, Field2D(grid, psi.values.copy()))
    H = vx.rmhd_energy(3)
    pairs = [(vx.make_casimir(vx.CasimirSpec("flux_pair", vx.PROFILES["identity"])),
              Drift("flux_pair_rel_drift", "rel", "<=", 1e-6)), (H, None)]
    divergence = vx.Functional("psi_pair_divergence", lambda z: (z.parts[1] - z.parts[2]).max_abs())
    run, max_div = _stepped(cfg, vx.vortex_rhs(3, H), z0, pairs, divergence)
    checks = [
        Check("psi_pair_max_divergence", max_div, 0.0, "==",
              note="equal initial data evolves under one identical generator"),
        *_drift_checks(run.series, pairs),
    ]
    return RunResult(checks=checks, series=run.series, snapshots={"state_final": run.state})


def _run_kernel_deficit(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    init = cfg.initial
    zeta = vx.field_from_modes(grid, init["zeta_modes"])
    z = vx.make_kernel_state(zeta, vx.PROFILES[init["xi"]], vx.PROFILES[init["eta"]])
    omega, psi = z.parts
    commutator = vx.bracket2d(omega, psi).max_abs()
    rows = [{"case": "commutator_max", "value": commutator}]
    checks = [Check("kernel_commutator", commutator, 1e-9, "<=")]
    J2 = vx.vortex_operator(2)
    for gname in ("identity", "square", "sin"):
        C1 = vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES[gname]))
        r = casimir_residual(C1, z, J2)
        rows.append({"case": f"cross_helicity_residual[{gname}]", "value": r})
        checks.append(Check(f"cross_helicity_residual_{gname}", r, 1e-9, "<="))
    witness = vx.function_dependence_witness(omega, psi, psi_gap=0.1)
    found = witness is not None
    rows.append({"case": "deficit_witness_found", "value": float(found)})
    checks.append(Check("deficit_witness", float(found), 1.0, "==",
                        note="two grid points share omega but differ in psi: psi is not a "
                        "function of omega, so no single-field profile integrates this kernel element"))
    return RunResult(checks=checks, rows=rows, extras={"witness": witness},
                     snapshots={"state_kernel": z})


def _run_singular_leaf(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    rng = np.random.default_rng(cfg.seed)
    init = cfg.initial
    omega = random_band_limited_2d(grid, init["omega_kmax"], rng, init["omega_amplitude"])
    z0 = vx.state_ii(omega, Field2D.zeros(grid))
    H = vx.rmhd_energy(2)
    leaf = vx.Functional("leaf_norm_sq", lambda z: vx.singular_leaf_indicator(z.parts[1])[0])
    interior = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2))
    pairs = [(leaf, None),
             (interior, Drift("interior_enstrophy_rel_drift", "rel", "<=", 1e-8,
                              note="on the leaf, the subsystem conserves its own Casimir")),
             (H, None)]
    run = _stepped(cfg, vx.vortex_rhs(2, H), z0, pairs)
    res_on = vx.interior_casimir_residual(omega, vx.PROFILES["square"])
    z_off = vx.state_ii(omega, Field2D.from_function(grid, lambda X, Y: np.sin(X)))
    off_norm = l2norm(vx.apply_j2(z_off, interior.gradient(z_off)).parts[1])
    checks = [
        Check("leaf_indicator_max", max(run.series.values[leaf.label]), 1e-20, "<=",
              note="an orbit starting on the leaf psi = 0 stays on it"),
        Check("on_leaf_at_end", float(vx.singular_leaf_indicator(run.state.parts[1])[1]), 1.0, "=="),
        *_drift_checks(run.series, pairs),
        Check("interior_residual_on_leaf", res_on, 1e-9, "<="),
        Check("interior_residual_off_leaf", off_norm, 1e-3, ">=",
              note="off psi = 0 the same gradient is no longer annihilated"),
    ]
    return RunResult(checks=checks, series=run.series, snapshots={"state_final": run.state})


_LOOPS_Y_NOTE = ("exactly 0 at the defaults: every loop orbit keeps |x| >= ~0.33 while "
                 "eps = 0.05, so smoothed_step rounds to 1; it moves only for an orbit "
                 "within a few eps of x = 0 (a sign change fails loops_sign_conserved)")


def _run_finitedim(cfg: RunConfig) -> RunResult:
    init = cfg.initial
    rng = np.random.default_rng(cfg.seed)
    m = init["n_orbits"] // 2

    # loop family: closed level sets around a center off the singular plane
    a = rng.uniform(0.55, 0.95, m) * rng.choice([-1.0, 1.0], m)
    b = rng.uniform(-0.5, 0.5, m)
    q = rng.uniform(0.8, 1.2, m)
    loops = np.zeros((10, m))
    loops[0] = q * (a * a + b * b) / 2
    loops[1] = -q * a
    loops[2] = -q * b
    loops[3] = q / 2
    loops[5] = q / 2
    loops[6:10] = rng.uniform(-0.04, 0.04, (4, m))
    th = rng.uniform(0, 2 * math.pi, m)
    r = rng.uniform(0.05, 0.22, m)
    z0_loops = np.vstack([a + r * np.cos(th), b + r * np.sin(th)])

    # well family: confining well at the origin; orbits stall toward x = 0
    wells = np.zeros((10, m))
    wells[3] = rng.uniform(0.8, 1.2, m) / 2
    wells[5] = wells[3]
    wells[1:3] = rng.uniform(-0.1, 0.1, (2, m))
    wells[4] = rng.uniform(-0.2, 0.2, m)
    wells[6:10] = rng.uniform(-0.05, 0.05, (4, m))
    z0_wells = np.vstack(
        [rng.uniform(0.25, 0.7, m) * rng.choice([-1.0, 1.0], m), rng.uniform(-0.7, 0.7, m)]
    )

    eps_fixed = init["eps"]
    rows, all_checks = [], []

    # both families step as one batch: every RK4 operation is columnwise, so
    # each orbit's column is bitwise what it would be alone
    res = fd.simulate_plane_orbits(np.hstack([loops, wells]), np.hstack([z0_loops, z0_wells]),
                                   cfg.t_end, cfg.dt)
    for family, cols in (("loops", slice(None, m)), ("wells", slice(m, None))):
        x0s, mn, mx = res["x0"][cols], res["x_min_signed"][cols], res["x_max_signed"][cols]
        eps = eps_fixed if family == "loops" else np.minimum(eps_fixed, mn / 4.0)
        y0 = fd.smoothed_step(np.abs(x0s), eps)
        drifts = abs(fd.smoothed_step(np.array([mn, mx]), eps) - y0).max(axis=0)
        rows += [{"case": f"{family}_{i}", "x0": x0, "min_signed_x": lo, "max_signed_x": hi,
                  "y_drift": d} for i, (x0, lo, hi, d) in enumerate(zip(x0s, mn, mx, drifts))]
        all_checks.append(Check(f"{family}_sign_conserved", float(res["sign_ok"][cols].all()),
                                1.0, "=="))
        all_checks.append(Check(f"{family}_y_eps_drift_max", float(drifts.max()), 1e-6, "<=",
                                note=_LOOPS_Y_NOTE if family == "loops" else ""))

    for eps in (0.05, 0.1, 0.5):
        nu_x, nu_y = fd.kernel_basis_regularized(eps)
        rx = fd.closedness_residual(nu_x)
        ry = fd.closedness_residual(nu_y)
        rows.append({"case": f"closedness_nu_x_eps_{eps}", "value": rx})
        rows.append({"case": f"closedness_nu_y_eps_{eps}", "value": ry})
        all_checks.append(Check(f"closedness_nu_x_eps_{eps}", rx, 1e-8, "<="))
        all_checks.append(Check(f"closedness_nu_y_eps_{eps}", ry, 1.0, ">=",
                                note="not a closed 1-form: no Casimir integrates this kernel element"))
    return RunResult(checks=all_checks, rows=rows)


def _check_ionacoustic1d(cfg: dict):
    """Reject an amplitude outside (0, 1), and a grid on which solve_phi's residual
    cannot reach its tolerance in float64."""
    amp = cfg["initial"]["amplitude"]
    if not 0 < amp < 1:
        raise ConfigError(f"config field 'initial.amplitude': expected a number in (0, 1), "
                          f"so the density 1 + a cos(kx) stays positive, got {amp!r}")
    grid = Grid1D(**cfg["grid"])
    for k in cfg["initial"]["modes"]:
        floor = ik.residual_floor(grid, k, amp)
        if not floor <= ik.PHI_TOL:  # also a NaN floor: a grid.l so small that k^2 overflows
            bound = (f"a float64 rounding floor of up to {floor:.2e}, above its tolerance "
                     f"{ik.PHI_TOL:g}" if math.isfinite(floor) else
                     "no finite float64 rounding floor, since the squared wavenumbers overflow")
            raise ConfigError(
                f"config fields 'grid.n' = {grid.n}, 'grid.l' = {grid.l!r} and "
                f"'initial.amplitude' = {amp:g} (mode {k}): the potential's Newton residual has "
                f"{bound}; lower grid.n or initial.amplitude, or raise grid.l"
            )


def _mode_series(series: dyn.DiagnosticSeries, k: int, pairs) -> dyn.DiagnosticSeries:
    """Mode k's columns of the batch series, under its watchers' own labels."""
    return dyn.DiagnosticSeries(tuple(f.label for f, _ in pairs), list(series.times),
                                {f.label: series.values[f"{f.label}_k{k}"] for f, _ in pairs})


def _run_ionacoustic1d(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    modes = cfg.initial["modes"]
    H = ik.ion_energy()
    # each distinct mode is member j of one (2, m, n) array of (rho, V) rows;
    # the flow is row by row, so each member steps bitwise as it would alone
    members = list(dict.fromkeys(modes))
    starts = [ik.acoustic_mode_state(grid, k, cfg.initial["amplitude"]) for k in members]
    z0 = np.array([[z.parts[i].values for z in starts] for i in (0, 1)])
    watch = {k: [(ik.mode_amplitude(k), None),  # first: the frequency is read from it
                 (H, Drift("energy_rel_drift", "rel", "<=", 1e-7)),
                 (ik.total_mass(), Drift("mass_rel_drift", "rel", "<=", 1e-7)),
                 (ik.momentum(), Drift("momentum_drift", "rel", "<=", 1e-7))]
             for k in members}

    def member_watch(f, j, k):
        def value(zv):
            return f.value(State("ion", (Field1D(grid, zv[0, j]), Field1D(grid, zv[1, j]))))

        return vx.Functional(f"{f.label}_k{k}", value)

    batch = [(member_watch(f, j, k), None) for j, k in enumerate(members) for f, _ in watch[k]]
    try:
        series = _stepped(cfg, lambda zv: ik.ion_flow(grid, zv[0], zv[1]), z0, batch).series
    except dyn.IntegrationError as exc:
        raise dyn.IntegrationError(str(exc), _mode_series(exc.series, modes[0], watch[modes[0]]),
                                   exc.step_index, exc.last_state) from exc
    series_by_mode = {k: _mode_series(series, k, watch[k]) for k in members}
    checks = []
    extras = {"modes": {}}
    for k in modes:
        series = series_by_mode[k]
        theory = ik.acoustic_dispersion(float(k))
        try:
            measured = dyn.estimate_frequency(series.times, series.values[watch[k][0][0].label])
        except ValueError as exc:
            measured, rel, note = None, math.inf, f"run too short to measure a frequency: {exc}"
        else:
            rel, note = abs(measured - theory) / theory, ""
        extras["modes"][str(k)] = {"measured_omega": measured, "theory_omega": theory}
        checks.append(Check(f"dispersion_rel_error_k{k}", rel, 1e-2, "<=", note))
        checks += _drift_checks(series, watch[k], suffix=f"_k{k}")
    return RunResult(checks=checks, series=series_by_mode.pop(modes[0]), extras=extras,
                     extra_series=series_by_mode)


def _run_kdv_soliton(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    c, x0 = cfg.initial["c"], cfg.initial["x0"]
    z0 = ik.kdv_state(ik.kdv_soliton(c, x0, grid))
    pairs = [(ik.kdv_mass(), Drift("mass_drift", "abs", "<=", 1e-12)),
             (ik.kdv_momentum(), Drift("momentum_rel_drift", "rel", "<=", 1e-8)),
             (ik.kdv_energy(), Drift("energy_rel_drift", "rel", "<=", 1e-7))]
    run = _stepped(cfg, None, z0, pairs, scheme="if_rk4")
    exact = ik.kdv_soliton(c, x0 + c * cfg.t_end, grid)
    err = float(np.max(np.abs(run.state.parts[0].values - exact.values)))
    checks = [
        Check("soliton_linf_error", err, 1e-3, "<="),
        *_drift_checks(run.series, pairs),
    ]
    return RunResult(checks=checks, series=run.series, snapshots={"state_final": run.state})


def _run_jacobi_check(cfg: RunConfig) -> RunResult:
    rng = np.random.default_rng(cfg.seed)
    step = cfg.initial["step"]

    def rand_cubic():
        return fd.cubic_functional(rng.uniform(-0.2, 0.2, 10))

    def rand_quadratic():
        c = np.zeros(10)
        c[:6] = rng.uniform(-0.5, 0.5, 6)
        return fd.cubic_functional(c, "quadratic")

    rows = []
    checks = []
    z2 = State("finite", (rng.uniform(-1.0, 1.0, 2),))
    r = max(
        jacobi_residual(fd.canonical_operator(), z2, rand_quadratic(), rand_quadratic(), rand_quadratic(), step)
        for _ in range(5)
    )
    rows.append({"case": "canonical_quadratics", "value": r})
    checks.append(Check("jacobi_canonical", r, 1e-8, "<="))

    r = max(
        jacobi_residual(fd.x_scaled_canonical_operator(), State("finite", (rng.uniform(-1, 1, 2),)),
                        rand_cubic(), rand_cubic(), rand_cubic(), step)
        for _ in range(5)
    )
    rows.append({"case": "x_scaled_cubics", "value": r})
    checks.append(Check("jacobi_x_scaled", r, 1e-8, "<="))

    coords = [fd.coordinate_functional(i) for i in range(3)]
    z3 = State("finite", (np.array([0.4, 0.8, 0.6]),))
    r_ok = jacobi_residual(fd.so3_operator(), z3, *coords, step)
    r_bad = jacobi_residual(fd.broken_so3_operator(), z3, *coords, step)
    rows.append({"case": "so3_coordinates", "value": r_ok})
    rows.append({"case": "broken_so3_coordinates", "value": r_bad})
    checks.append(Check("jacobi_so3", r_ok, 1e-8, "<="))
    checks.append(Check("jacobi_broken_so3", r_bad, 1e-3, ">=",
                        note="the cyclic sum detects a genuine violation"))
    return RunResult(checks=checks, rows=rows)


# ---------------------------------------------------------------------------
# preset registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named experiment.

    ``defaults`` is the preset's whole config schema: it names every initial
    key the preset accepts and gives its default value, while ``_RULES``
    holds what each value must be.  ``grid`` is the grid class the runner
    builds (``_GRID_KEYS`` names the keys it takes), or None for no grid.
    ``check``, if set, tests the merged config across its fields and raises
    ConfigError.
    """

    name: str
    description: str
    runner: object
    grid: type | None
    defaults: dict
    watch_names: tuple = ()
    check: object = None


PRESETS = {
    p.name: p
    for p in (
        Preset("euler2d", "single-field vortex dynamics; energy and enstrophy conservation",
               _run_euler2d, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 10.0, "output_every": 0.1, "seed": 12,
                "initial": {"kind": "random", "kmax": 4, "amplitude": 0.8}},
               watch_names=("energy", "enstrophy")),
        Preset("rmhd2d",
               "two-field dynamics: flux-coupled Hamiltonian breaks enstrophy conservation",
               _run_rmhd2d, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-3, "t_end": 1.0, "output_every": 0.01, "seed": 0,
                "initial": {"omega_modes": [],
                            "psi_modes": [[1, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]}},
               watch_names=("energy", "cross_helicity", "flux_sq", "enstrophy")),
        Preset("phantom2", "two psi seeds, one omega trajectory: bitwise phantom invariance",
               _run_phantom2, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 10.0, "output_every": 0.1, "seed": 12,
                "initial": {"omega_kmax": 4, "omega_amplitude": 0.8, "psi_kmax": 4,
                            "psi_amplitude": 1.0, "psi_seeds": [101, 202]}}),
        Preset("phantom3",
               "three-field run with equal flux fields: one generator, bitwise equal orbits",
               _run_phantom3, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 5.0, "output_every": 0.1, "seed": 12,
                "initial": {"omega_kmax": 4, "omega_amplitude": 0.8, "psi_kmax": 4,
                            "psi_amplitude": 1.0}}),
        Preset("kernel_deficit",
               "kernel state (omega, psi) = (xi(zeta), eta(zeta)) and the deficit witness",
               _run_kernel_deficit, Grid2D,
               {"grid": {"n": 128}, "seed": 0,
                "initial": {"zeta_modes": [[1, 0, 1.0, 0.0], [0, 1, 1.0, 0.0]],
                            "xi": "square", "eta": "identity"}}),
        Preset("singular_leaf", "orbit on the leaf psi = 0: leaf indicator and interior Casimir",
               _run_singular_leaf, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 5.0, "output_every": 0.1, "seed": 12,
                "initial": {"omega_kmax": 4, "omega_amplitude": 0.8}}),
        Preset("finitedim",
               "orbit batch for J = x * Jc: sign invariance, step-function drift, closedness",
               _run_finitedim, None,
               {"dt": 1e-3, "t_end": 20.0, "seed": 42, "initial": {"n_orbits": 100, "eps": 0.05}}),
        Preset("ionacoustic1d",
               "acoustic mode dispersion against k/sqrt(1+k^2) plus invariant drifts",
               _run_ionacoustic1d, Grid1D,
               {"grid": {"n": 128}, "dt": 1e-2, "t_end": 50.0, "output_every": 0.05, "seed": 0,
                "initial": {"modes": [1, 2], "amplitude": 1e-4}},
               check=_check_ionacoustic1d),
        Preset("kdv_soliton", "soliton transport against the exact translated profile",
               _run_kdv_soliton, Grid1D,
               {"grid": {"n": 512, "l": 40.0}, "dt": 1e-3, "t_end": 10.0, "output_every": 0.1,
                "seed": 0, "initial": {"c": 1.0, "x0": 10.0}}),
        Preset("jacobi_check", "finite-difference Jacobi residuals for sound and broken operators",
               _run_jacobi_check, None,
               {"seed": 7, "initial": {"step": 1e-5}}),
    )
}


# ---------------------------------------------------------------------------
# artifact writing and entry points
# ---------------------------------------------------------------------------


def _write_rows_csv(path, rows: list[dict]):
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            cells = (row.get(k, "") for k in keys)
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells) + "\n")


def run_preset(cfg: RunConfig) -> int:
    """Run a preset and write its artifacts; return 0 if every check passed, else 1.

    This is the one place where a numerical failure, or a failed allocation
    (MemoryError), becomes a failure record.  One inside the time loop keeps
    the partial series and names its step; one outside it (at setup, or in a
    preset without a series) has step null.
    The runner runs with numpy's floating-point warnings off: the finiteness
    checks report a blow-up, so the warnings would only repeat it on stderr.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = PRESETS[cfg.preset].runner(cfg)
    except dyn.IntegrationError as exc:
        result = RunResult(series=exc.series)
        failure = {"step": exc.step_index, "message": str(exc)}
    except NumericalFailure as exc:
        result = RunResult()
        failure = {"step": None, "message": f"{type(exc).__name__}: {exc}"}
    except MemoryError as exc:  # numpy raises a subclass whose own name is private
        result = RunResult()
        failure = {"step": None, "message": f"MemoryError: {exc}"}
    wall = time.perf_counter() - t0

    if result.series is not None:
        result.series.to_csv(out_dir / "diagnostics.csv")
    elif result.rows:
        _write_rows_csv(out_dir / "diagnostics.csv", result.rows)
    for k, extra in result.extra_series.items():
        extra.to_csv(out_dir / f"diagnostics_k{k}.csv")
    if cfg.snapshot:
        for name, state in result.snapshots.items():
            save_snapshot(out_dir / f"{name}.snap", state)

    functionals = {}
    series = result.series
    if series is not None and series.times:
        for lab in series.labels:
            absd, reld = series.drift(lab)
            functionals[lab] = {"initial": series.initial(lab), "final": series.final(lab),
                                "abs_drift": absd, "rel_drift": reld}
    passed = failure is None and all(c.passed for c in result.checks)
    summary = {
        "preset": cfg.preset,
        "config": cfg.echo(),
        "functionals": functionals,
        "checks": [c.as_dict() for c in result.checks],
        "pass": passed,
        "wall_time_s": wall,
        "failure": failure,
    }
    if result.extras:
        summary["extras"] = result.extras
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=repr)
        fh.write("\n")

    for c in result.checks:
        status = "pass" if c.passed else "FAIL"
        note = f"  ({c.note})" if c.note else ""
        print(f"[{status}] {c.name}: {c.value:.6g} {c.op} {c.threshold:g}{note}")
    if failure is not None:
        print(f"[FAIL] run aborted: {failure['message']}")
    print(f"artifacts in {out_dir}  wall {wall:.2f}s  overall: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="casimirlab", description="preset experiments for degenerate Poisson systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset experiment")
    p_run.add_argument("preset", help="preset name (see list-presets)")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
    p_run.add_argument("--out-dir", help="artifact directory")

    sub.add_parser("list-presets", help="list preset names and descriptions")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name in sorted(PRESETS):
            print(f"{name:16s} {PRESETS[name].description}")
        return 0

    try:
        if args.command == "validate":
            cfg = parse_config(path=args.config, sets=tuple(args.set))
            print(json.dumps(cfg.echo(), indent=2))
            print("config ok")
            return 0
        cfg = parse_config(preset=args.preset, path=args.config, sets=tuple(args.set),
                           out_dir_flag=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_preset(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
