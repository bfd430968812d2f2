"""Command-line front door: preset experiments with reproducible artifacts.

Each preset is fully determined by its config.  A run writes
``diagnostics.csv`` (floats printed with 17 significant digits, so re-running
an identical config yields a byte-identical file), ``summary.json`` (config
echo, per-functional initial/final/drift, pass/fail per threshold, wall
time, failure record), and optional state snapshots.  Exit status is 0 iff
all preset thresholds pass, 1 if a check fails or the run hits a numerical
failure, and 2 for a configuration error.

Config is a single JSON document; ``--set key=value`` flags override file
entries (dotted paths, values parsed as JSON when possible).  Validation is
strict: beyond preset, grid, initial and out_dir, a preset's defaults name
every key it accepts, and unknown keys or values that break their rule are
rejected with a field diagnostic.  The output directory resolves as flag >
config > $CASIMIRLAB_OUT_DIR > ./runs/<preset>.
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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from . import finitedim as fd
from . import ion_kdv as ik
from . import vortex as vx
from .field_core import (
    Field1D, Field2D, Grid1D, Grid2D, NumericalFailure, l2norm, random_band_limited_2d, wavenumber,
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

def _snapshot_header(kind: str, grid) -> str:
    """The header save_snapshot writes for kind on grid (a point count for point data), up to
    its 'end' line."""
    names, part_type = STATE_KINDS[kind]
    if part_type is None:
        where = f"point {grid}"
    elif part_type is Field1D:
        where = f"grid1d {grid.n} {float(grid.l)!r}"
    else:
        where = f"grid2d {grid.nx} {grid.ny} {float(grid.lx)!r} {float(grid.ly)!r}"
    return "\n".join(("casimirlab-snapshot 1", f"kind {kind}", where, "fields " + " ".join(names)))


def save_snapshot(path, state: State):
    """Write a state: ASCII header lines, 'end', then raw '<f8' payloads.

    2D payloads are row-major by y then x, matching the in-memory layout.
    """
    part_type = STATE_KINDS[state.kind][1]
    grid = state.parts[0].grid if part_type else state.parts[0].size
    with open(path, "wb") as fh:
        fh.write((_snapshot_header(state.kind, grid) + "\nend\n").encode("ascii"))
        for p in state.parts:
            fh.write(np.ascontiguousarray(p.values if part_type else p, dtype="<f8").tobytes())


def load_snapshot(path) -> State:
    """Read a state written by save_snapshot.

    The header must be exactly the one save_snapshot writes for its kind and
    grid: a line repeated, added, dropped or reordered, or a number spelled
    otherwise than the writer spells it ('grid1d 16 40' for 'grid1d 16 40.0'),
    raises SnapshotError.  So do an unknown kind, a grid the grid class
    rejects, a payload whose length differs from what the header declares,
    and a payload holding NaN or inf.
    """
    head, sep, payload = Path(path).read_bytes().partition(b"\nend\n")
    try:
        head = head.decode("ascii")
        # a header of fewer lines reads as empty ones, which the comparison below rejects
        magic, kind, where, *_ = head.split("\n") + ["", ""]
        if not sep or magic != "casimirlab-snapshot 1":
            raise ValueError("not a casimirlab snapshot")
        kind = kind.removeprefix("kind ")
        if kind not in STATE_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        names, part_type = STATE_KINDS[kind]
        # built before the header is compared, so a grid its class rejects names its rule
        args = where.split()[1:]
        if part_type is None:
            (n,) = args
            grid = int(n)
        elif part_type is Field1D:
            n, l = args
            grid = Grid1D(int(n), float(l))
        else:
            nx, ny, lx, ly = args
            grid = Grid2D(int(nx), int(ny), float(lx), float(ly))
        if head != (expected := _snapshot_header(kind, grid)):
            raise ValueError(f"header {head!r} is not the one the writer writes, {expected!r}")
        shape = grid.shape if part_type else (grid,)
        size = 8 * len(names) * math.prod(shape)
        if len(payload) != size:
            raise ValueError(f"payload has {len(payload)} bytes, the header declares {size}")
        vals = np.frombuffer(payload, dtype="<f8").astype(float).reshape(len(names), *shape)
        if not np.isfinite(vals).all():
            raise ValueError("payload holds non-finite values")
        parts = vals if part_type is None else (part_type(grid, v) for v in vals)
        return State(kind, tuple(parts))
    except ValueError as exc:  # includes UnicodeDecodeError, FieldError and StateError
        raise SnapshotError(f"snapshot {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_SIZES = ("n", "nx", "ny")  # the grid keys that count points

# What a config value must be, as (description, test), by key.  Every key of
# every preset's defaults has a rule here.
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0)
# kx and ky are mode numbers: a whole number of periods fits the box only for an integer
_MODE_LIST = (
    "a list of [kx, ky, amplitude, phase] entries with integer mode numbers kx, ky",
    lambda v: isinstance(v, list)
    and all(isinstance(m, list) and len(m) == 4 and all(map(_is_number, m))
            and all(isinstance(k, int) or k.is_integer() for k in m[:2]) for m in v),
)
_RULES = {
    **dict.fromkeys(("grid", "initial"), ("an object", lambda v: isinstance(v, dict))),
    **dict.fromkeys(("dt", "t_end", "output_every", "l", "lx", "ly", "amplitude",
                     "omega_amplitude", "psi_amplitude", "c", "eps", "step"), _POSITIVE),
    **dict.fromkeys(_SIZES,
                    ("an even integer >= 8", lambda v: _is_int(v) and v >= 8 and v % 2 == 0)),
    **dict.fromkeys(("kmax", "omega_kmax", "psi_kmax"),
                    ("a positive integer", lambda v: _is_int(v) and v > 0)),
    **dict.fromkeys(("zeta_modes", "omega_modes", "psi_modes"), _MODE_LIST),
    **dict.fromkeys(("xi", "eta"), (f"a profile name ({', '.join(sorted(vx.PROFILES))})",
                                    lambda v: isinstance(v, str) and v in vx.PROFILES)),
    "preset": ("a preset name", lambda v: isinstance(v, str)),
    "watch": ("a non-empty list of distinct functional names", lambda v: v is None or (
        isinstance(v, list) and all(isinstance(w, str) for w in v) and 0 < len(set(v)) == len(v))),
    "out_dir": ("a directory path", lambda v: v is None or (isinstance(v, str) and "\0" not in v)),
    "snapshot": ("true or false", lambda v: isinstance(v, bool)),
    "n_orbits": ("an even integer >= 2", lambda v: _is_int(v) and v >= 2 and v % 2 == 0),
    # the elements are tested before the set is built: a list is unhashable
    "modes": ("a non-empty list of distinct positive mode numbers", lambda v: isinstance(v, list)
              and len(v) > 0 and all(_is_int(k) and k > 0 for k in v) and len(set(v)) == len(v)),
    "seed": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "psi_seeds": ("a list of two distinct non-negative integer seeds",
                  lambda v: isinstance(v, list) and len(v) == 2
                  and all(_is_int(s) and s >= 0 for s in v) and v[0] != v[1]),
    "kind": ("'random' or 'taylor_green'", lambda v: v in ("random", "taylor_green")),
    "x0": ("a finite number", _is_number),
}

# the keys every config takes besides preset; any other key a preset takes is
# named by its defaults
_BASE = {"grid": {}, "initial": {}, "out_dir": None}

# the grid keys each grid class takes; in 2-D, n and l set both axes and
# nx, ny, lx and ly override them
_GRID_KEYS = {None: (), Grid1D: ("n", "l"), Grid2D: ("n", "l", "nx", "ny", "lx", "ly")}

# the most points a grid may have (1024^2 in 2-D): 64 times the largest grid a
# preset defaults to, and far below a grid whose fields would not fit in memory
MAX_GRID_POINTS = 2**20


def _check_section(section: dict, known, where: str):
    """Reject keys not in known and values that break their rule."""
    for key, value in section.items():
        if key not in known:
            allowed = ", ".join(sorted(known)) or "none"
            raise ConfigError(f"unknown config key '{where}{key}' (allowed: {allowed})")
        what, ok = _RULES[key]
        if not ok(value):
            raise ConfigError(f"config field '{where}{key}': expected {what}, got {value!r}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object of a config file or a --set value; ConfigError names a key it gives twice."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        twice = next(key for key in keys if keys.count(key) > 1)
        raise ConfigError(f"config key '{twice}' is given twice in one object")
    return dict(pairs)


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
        value = json.loads(raw_value, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        value = raw_value
    node = cfg
    keys = dotted.split(".")
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path '{dotted}' descends into a non-object")
    node.update(_deep_merge(node, {keys[-1]: value}))  # an object merges, as from a file


@dataclass(kw_only=True)
class RunConfig:
    """A validated config; a field the preset's defaults do not name is None."""

    preset: str
    grid: dict
    dt: float | None = None
    t_end: float | None = None
    output_every: float | None = None
    seed: int | None = None
    initial: dict
    watch: list | None = None
    out_dir: str
    snapshot: bool | None = None


def parse_config(
    preset: str | None = None,
    path: str | None = None,
    sets: tuple[str, ...] = (),
    out_dir_flag: str | None = None,
) -> RunConfig:
    """Merge preset defaults, config file and --set overrides; validate strictly.

    The preset's defaults are its schema: they name every top-level and
    initial key it accepts beyond those of every config (_BASE and preset),
    and its grid class names the grid keys.  A grid of more than
    MAX_GRID_POINTS points is rejected before anything allocates on it.  A
    preset steps in time iff its defaults have dt; then t_end, and an
    output_every longer than dt, must be a whole number of dt steps.
    """
    file_cfg: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:  # a directory, not UTF-8, not JSON, a key twice
            raise ConfigError(f"config file {path}: not readable as UTF-8 JSON with distinct "
                              f"keys ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path}: top level must be a JSON object")

    name = preset or file_cfg.get("preset")
    if name is None:
        raise ConfigError("no preset given (positional argument or 'preset' config key)")
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (valid presets: {', '.join(sorted(PRESETS))})")
    spec = PRESETS[name]

    cfg = _deep_merge(copy.deepcopy(_BASE | spec.defaults), file_cfg)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got '{item}'")
        key, _, value = item.partition("=")
        _set_dotted(cfg, key.strip(), value.strip())
    if cfg.setdefault("preset", name) != name:
        raise ConfigError(f"config field 'preset': preset mismatch, {cfg['preset']!r} is not '{name}'")

    _check_section(cfg, {"preset", *_BASE, *spec.defaults}, "")
    _check_section(cfg["grid"], _GRID_KEYS[spec.grid], "grid.")
    _check_section(cfg["initial"], spec.defaults["initial"], "initial.")
    if spec.grid is not None:  # before any check allocates on the grid
        points = math.prod(v for k, v in _grid_args(spec.grid, cfg["grid"]).items() if k in _SIZES)
        if points > MAX_GRID_POINTS:
            given = [f"'grid.{k}' = {v!r}" for k, v in cfg["grid"].items() if k in _SIZES]
            raise ConfigError(f"config field{'s' * (len(given) > 1)} {', '.join(given)}: a grid of "
                              f"{points} points is above the limit of {MAX_GRID_POINTS} (1024^2)")
    if "dt" in spec.defaults:
        for key, count in (("t_end", dyn.step_count), ("output_every", dyn.sample_stride)):
            try:
                count(cfg.get(key), cfg["dt"])
            except (ValueError, OverflowError) as exc:  # OverflowError: the ratio is infinite
                raise ConfigError(f"config fields '{key}' and 'dt': {exc}") from exc
        cfg |= {key: float(cfg[key]) for key in ("dt", "t_end", "output_every") if key in cfg}
    if spec.check is not None:
        spec.check(cfg)
    if cfg.get("watch"):  # only a preset with a watch catalog takes the key
        names = tuple(spec.catalog())
        unknown = sorted(set(cfg["watch"]) - set(names))
        if unknown:
            raise ConfigError(f"config field 'watch': unknown functional '{unknown[0]}' for "
                              f"preset {name} (available: {', '.join(names)})")

    out_dir = out_dir_flag or cfg["out_dir"] or os.environ.get(ENV_OUT_DIR) or Path("runs") / name
    # run_preset makes out_dir and its parents: the nearest that exists must be a directory
    if not next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists()).is_dir():
        raise ConfigError(f"config field 'out_dir': {out_dir} is a file or lies under one, "
                          f"so no directory can be made there")
    return RunConfig(**cfg | {"out_dir": str(out_dir)})


def _grid_args(grid_type: type, grid: dict) -> dict:
    """The grid class's arguments from a config's grid keys: in 2-D, n and l set
    both axes and nx, ny, lx and ly override them."""
    args = dict(grid)
    if grid_type is Grid2D:
        for short, axes in (("n", ("nx", "ny")), ("l", ("lx", "ly"))):
            if short in args:
                value = args.pop(short)
                for axis in axes:
                    args.setdefault(axis, value)
    return args


def _grid(cfg: RunConfig) -> Grid1D | Grid2D:
    grid_type = PRESETS[cfg.preset].grid
    return grid_type(**_grid_args(grid_type, cfg.grid))


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
        """The check as strict JSON: a non-finite value is the string 'inf', '-inf' or 'nan'."""
        value = self.value if math.isfinite(self.value) else str(float(self.value))
        d = {"name": self.name, "value": value, "op": self.op, "threshold": self.threshold,
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


def _stepped(cfg: RunConfig, rhs, z0, pairs, divergence=None):
    """Step z0 to cfg.t_end by cfg.dt, sampling the functionals of the (functional,
    Drift | None) pairs every cfg.output_every.

    The rhs goes to `dyn.step` as given: RK4 steps it, and None means KdV's
    integrating-factor step.  Returns (series, final state, max divergence).
    With no divergence functional the run is drained by `dyn.run_and_record`
    and the maximum is None; a divergence functional heads the series and is
    also taken after every step, and the maximum is over the steps.
    """
    watch = [f for f, _ in pairs]
    if divergence is None:
        return (*dyn.run_and_record(cfg.dt, rhs, z0, cfg.t_end, watch, cfg.output_every), None)
    run = dyn.Trajectory(cfg.dt, rhs, z0, cfg.t_end, [divergence, *watch], cfg.output_every)
    max_divergence = max(map(divergence.value, run))  # drains the run: run.state is final after
    return run.series, run.state, max_divergence


def _run_catalog(cfg: RunConfig, z0: State) -> RunResult:
    """Step z0 under its level's operator and its preset's watch catalog's energy.

    The catalog's watched pairs head the series in the config's order and
    are judged in the catalog's own.
    """
    catalog = PRESETS[cfg.preset].catalog()
    names = catalog if cfg.watch is None else cfg.watch
    rhs = vx.vortex_rhs(len(z0.parts), catalog["energy"][0])
    series, state, _ = _stepped(cfg, rhs, z0, [catalog[n] for n in names])
    checks = _drift_checks(series, [p for n, p in catalog.items() if n in names])
    return RunResult(checks=checks, series=series, snapshots={"state_final": state})


# ---------------------------------------------------------------------------
# preset runners
# ---------------------------------------------------------------------------


def _check_euler2d(cfg: dict):
    """Reject a seed or initial.kmax other than the default on a Taylor-Green start,
    which draws no random field, so neither would change the run."""
    init, defaults = cfg["initial"], PRESETS["euler2d"].defaults
    if init["kind"] != "taylor_green":
        return
    for key, value, default in (("seed", cfg["seed"], defaults["seed"]),
                                ("initial.kmax", init["kmax"], defaults["initial"]["kmax"])):
        if value != default:
            raise ConfigError(f"config field '{key}' = {value!r}: a taylor_green start draws no "
                              f"random field, so {key} changes nothing; leave it at {default!r}")


def _euler2d_catalog() -> dict:
    """euler2d's watch catalog, name -> (functional, Drift); its energy is the Hamiltonian."""
    return {
        "energy": (vx.euler_energy(1), Drift("energy_rel_drift", "rel", "<=", 1e-8)),
        "enstrophy": (vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"])),
                      Drift("enstrophy_rel_drift", "rel", "<=", 1e-8)),
    }


def _rmhd2d_catalog() -> dict:
    """rmhd2d's watch catalog, name -> (functional, Drift); its energy is the Hamiltonian."""
    return {
        "energy": (vx.rmhd_energy(2), Drift("energy_rel_drift", "rel", "<=", 1e-6)),
        "cross_helicity": (vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES["identity"])),
                           Drift("cross_helicity_drift", "abs", "<=", 1e-6)),
        "flux_sq": (vx.make_casimir(vx.CasimirSpec("flux", vx.PROFILES["square"])),
                    Drift("flux_sq_rel_drift", "rel", "<=", 1e-6)),
        "enstrophy": (vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2)),
                      Drift("enstrophy_growth", "net", ">=", 1e-4,
                            note="non-conserved (expected): generalized enstrophy is not a "
                            "Casimir once the flux function enters the Hamiltonian")),
    }


def _run_euler2d(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    init = cfg.initial
    if init["kind"] == "taylor_green":
        amp, kx, ky = init["amplitude"], wavenumber(1, grid.lx), wavenumber(1, grid.ly)
        omega = Field2D.from_function(
            grid, lambda X, Y: amp * (np.sin(kx * X) * np.sin(ky * Y) + 0.5 * np.cos(2 * kx * X))
        )
    else:
        rng = np.random.default_rng(cfg.seed)
        omega = random_band_limited_2d(grid, init["kmax"], rng, init["amplitude"])
    return _run_catalog(cfg, vx.state_i(omega))


def _run_rmhd2d(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    omega = vx.field_from_modes(grid, cfg.initial["omega_modes"])
    psi = vx.field_from_modes(grid, cfg.initial["psi_modes"])
    return _run_catalog(cfg, vx.state_ii(omega, psi))


def _omega_draw(cfg: RunConfig):
    """The grid, the generator seeded by cfg.seed and the vorticity drawn first from it."""
    grid, init, rng = _grid(cfg), cfg.initial, np.random.default_rng(cfg.seed)
    return grid, rng, random_band_limited_2d(grid, init["omega_kmax"], rng,
                                             init["omega_amplitude"])


def _run_phantom2(cfg: RunConfig) -> RunResult:
    grid, _, omega = _omega_draw(cfg)
    init = cfg.initial
    seeds, psi_kmax, psi_amp = init["psi_seeds"], init["psi_kmax"], init["psi_amplitude"]
    za, zb = (vx.state_ii(omega, random_band_limited_2d(grid, psi_kmax, np.random.default_rng(s), psi_amp))
              for s in seeds)
    H = vx.euler_energy(2)
    divergence = vx.Functional("omega_max_divergence",
                               lambda pair: (pair[0].parts[0] - pair[1].parts[0]).max_abs())
    energy = vx.Functional("euler_energy", lambda pair: H.value(pair[0]))
    # both trajectories step in lockstep
    series, (za, zb), max_div = _stepped(cfg, vx.vortex_rhs(2, H), (za, zb), [(energy, None)],
                                         divergence)
    identical = np.array_equal(za.parts[0].values, zb.parts[0].values)
    checks = [
        Check("omega_max_divergence", max_div, 0.0, "==",
              note="phantom field cannot influence the actual field"),
        Check("omega_bitwise_identical", float(identical), 1.0, "=="),
    ]
    return RunResult(checks=checks, series=series, snapshots={"state_final": za},
                     extras={"steps": dyn.step_count(cfg.t_end, cfg.dt), "psi_seeds": seeds})


def _run_phantom3(cfg: RunConfig) -> RunResult:
    grid, rng, omega = _omega_draw(cfg)
    init = cfg.initial
    psi = random_band_limited_2d(grid, init["psi_kmax"], rng, init["psi_amplitude"])
    z0 = vx.state_iii(omega, psi, Field2D(grid, psi.values.copy()))
    H = vx.rmhd_energy(3)
    pairs = [(vx.make_casimir(vx.CasimirSpec("flux_pair", vx.PROFILES["identity"])),
              Drift("flux_pair_rel_drift", "rel", "<=", 1e-6)), (H, None)]
    divergence = vx.Functional("psi_pair_divergence", lambda z: (z.parts[1] - z.parts[2]).max_abs())
    series, state, max_div = _stepped(cfg, vx.vortex_rhs(3, H), z0, pairs, divergence)
    checks = [
        Check("psi_pair_max_divergence", max_div, 0.0, "==",
              note="equal initial data evolves under one identical generator"),
        *_drift_checks(series, pairs),
    ]
    return RunResult(checks=checks, series=series, snapshots={"state_final": state})


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
    grid, _, omega = _omega_draw(cfg)
    z0 = vx.state_ii(omega, Field2D.zeros(grid))
    H = vx.rmhd_energy(2)
    leaf = vx.Functional("leaf_norm_sq", lambda z: vx.singular_leaf_indicator(z.parts[1])[0])
    interior = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2))
    pairs = [(leaf, None),
             (interior, Drift("interior_enstrophy_rel_drift", "rel", "<=", 1e-8,
                              note="on the leaf, the subsystem conserves its own Casimir")),
             (H, None)]
    series, state, _ = _stepped(cfg, vx.vortex_rhs(2, H), z0, pairs)
    res_on = vx.interior_casimir_residual(omega, vx.PROFILES["square"])
    kx = wavenumber(1, grid.lx)
    z_off = vx.state_ii(omega, Field2D.from_function(grid, lambda X, Y: np.sin(kx * X)))
    off_norm = l2norm(vx.apply_j2(z_off, interior.gradient(z_off)).parts[1])
    checks = [
        Check("leaf_indicator_max", max(series.values[leaf.label]), 1e-20, "<=",
              note="an orbit starting on the leaf psi = 0 stays on it"),
        Check("on_leaf_at_end", float(vx.singular_leaf_indicator(state.parts[1])[1]), 1.0, "=="),
        *_drift_checks(series, pairs),
        Check("interior_residual_on_leaf", res_on, 1e-9, "<="),
        Check("interior_residual_off_leaf", off_norm, 1e-3, ">=",
              note="off psi = 0 the same gradient is no longer annihilated"),
    ]
    return RunResult(checks=checks, series=series, snapshots={"state_final": state})


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
    """Reject an amplitude outside (0, 1), a mode the flow's 2/3-rule dealiasing
    drops, a grid too large to allocate, and a grid on which solve_phi's residual
    cannot reach its tolerance in float64: its floor bound is above the tolerance,
    or the flow's closure does not converge on the initial densities."""
    amp = cfg["initial"]["amplitude"]
    if not 0 < amp < 1:
        raise ConfigError(f"config field 'initial.amplitude': expected a number in (0, 1), "
                          f"so the density 1 + a cos(kx) stays positive, got {amp!r}")
    grid, modes = Grid1D(**cfg["grid"]), cfg["initial"]["modes"]
    for k in modes:
        if k > grid.n // 3:
            raise ConfigError(f"config fields 'initial.modes' and 'grid.n' = {grid.n}: mode {k} "
                              f"is above n // 3 = {grid.n // 3}, so the flow's dealiasing drops it")
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
    # the floor bound was calibrated on l = 3 to 20 and tends to a constant as l
    # shrinks, so a tiny domain passes it: one closure solve on the initial rows
    try:
        ik._closure(grid, np.array([ik.acoustic_mode_state(grid, k, amp).parts[0].values
                                    for k in modes]))
    except ik.NewtonError as exc:
        raise ConfigError(
            f"config fields 'grid.l' = {grid.l!r} and 'grid.n' = {grid.n}: the potential's "
            f"Newton solve on the initial density ends at residual {exc.residual:.2e} ({exc}); "
            f"raise grid.l"
        ) from None
    except MemoryError:  # numpy raises a subclass whose own name is private
        raise ConfigError(f"config field 'grid.n' = {grid.n}: too large to allocate") from None


def _mode_series(series: dyn.DiagnosticSeries, k: int, pairs) -> dyn.DiagnosticSeries:
    """Mode k's columns of the batch series, under its watchers' own labels."""
    return dyn.DiagnosticSeries(tuple(f.label for f, _ in pairs), list(series.times),
                                {f.label: series.values[f"{f.label}_k{k}"] for f, _ in pairs})


# The wave energy E_w(0) = H(0) - L m (ln m - 1), with m = mass(0) / L, is H
# less the energy of the mean density at rest: 7.9e-9 and 3.1e-9 of H = 6.28 for
# modes 1 and 2 at the defaults.  max|H - H(0)| / E_w(0) reads 0 and 2.8e-7 there
# (1 ulp of H), and 0.39 when the flow is damped by -0.01 V.  Its divisor is
# floored at the wave energy on which _WAVE_ULPS ulps of H(0) meet the threshold,
# since float64 resolves no smaller wave in H.
_WAVE_DRIFT, _WAVE_ULPS = 1e-4, 4


def _run_ionacoustic1d(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    modes = cfg.initial["modes"]
    # mode j is member j of one (2, m, n) array of (rho, V) rows; the flow is
    # row by row, so each member steps bitwise as it would alone
    starts = [ik.acoustic_mode_state(grid, k, cfg.initial["amplitude"]) for k in modes]
    z0 = np.array([[z.parts[i].values for z in starts] for i in (0, 1)])
    drifts = (None,  # the mode amplitude: the frequency is read from it
              Drift("energy_rel_drift", "rel", "<=", 1e-7),
              Drift("mass_rel_drift", "rel", "<=", 1e-7),
              Drift("momentum_drift", "rel", "<=", 1e-7))
    watch = {k: list(zip(ik.mode_watchers(k), drifts)) for k in modes}
    # one watcher gives every member's values in that order, from one closure solve;
    # it gates the density as the flow does, since a sampled step meets it first
    batch = vx.Functional(tuple(f"{f.label}_k{k}" for k in modes for f, _ in watch[k]),
                          lambda zv: ik.ion_diagnostics(grid, ik.above_floor(zv[0]), zv[1], modes))
    try:
        series, _, _ = _stepped(cfg, lambda zv: ik.ion_flow(grid, zv[0], zv[1]), z0,
                                [(batch, None)])
    except dyn.IntegrationError as exc:
        # the partial CSV and state_last_finite follow the first listed mode; a bare State,
        # since the last finite density may lie at or below zero, which ion_state rejects
        first = State("ion", tuple(Field1D(grid, part[0]) for part in exc.last_state))
        raise dyn.IntegrationError(str(exc), _mode_series(exc.series, modes[0], watch[modes[0]]),
                                   exc.step_index, first) from exc
    series_by_mode = {k: _mode_series(series, k, watch[k]) for k in modes}
    checks, wave_checks = [], []
    extras = {"modes": {}}
    for k in modes:
        series = series_by_mode[k]
        theory = ik.acoustic_dispersion(wavenumber(k, grid.l))
        try:
            measured = dyn.estimate_frequency(series.times, series.values[watch[k][0][0].label])
        except ValueError as exc:
            measured, rel, note = None, math.inf, f"run too short to measure a frequency: {exc}"
        else:
            rel, note = abs(measured - theory) / theory, ""
        extras["modes"][str(k)] = {"measured_omega": measured, "theory_omega": theory}
        checks.append(Check(f"dispersion_rel_error_k{k}", rel, 1e-2, "<=", note))
        checks += _drift_checks(series, watch[k], suffix=f"_k{k}")
        h0, m = series.initial("ion_energy"), series.initial("mass") / grid.l
        wave = max(h0 - grid.l * m * (math.log(m) - 1.0), _WAVE_ULPS * math.ulp(h0) / _WAVE_DRIFT)
        wave_checks.append(Check(f"wave_energy_rel_drift_k{k}",
                                 series.drift("ion_energy")[0] / wave, _WAVE_DRIFT, "<="))
    return RunResult(checks=checks + wave_checks, series=series_by_mode.pop(modes[0]),
                     extras=extras, extra_series=series_by_mode)


def _run_kdv_soliton(cfg: RunConfig) -> RunResult:
    grid = _grid(cfg)
    c, x0 = cfg.initial["c"], cfg.initial["x0"]
    z0 = ik.kdv_state(ik.kdv_soliton(c, x0, grid))
    pairs = [(ik.kdv_mass(), Drift("mass_drift", "abs", "<=", 1e-12)),
             (ik.kdv_momentum(), Drift("momentum_rel_drift", "rel", "<=", 1e-8)),
             (ik.kdv_energy(), Drift("energy_rel_drift", "rel", "<=", 1e-7))]
    series, state, _ = _stepped(cfg, None, z0, pairs)
    exact = ik.kdv_soliton(c, x0 + c * cfg.t_end, grid)
    err = float(np.max(np.abs(state.parts[0].values - exact.values)))
    checks = [
        Check("soliton_linf_error", err, 1e-3, "<="),
        *_drift_checks(series, pairs),
    ]
    return RunResult(checks=checks, series=series, snapshots={"state_final": state})


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

    ``defaults`` is the preset's whole config schema: it names every
    top-level and initial key the preset accepts beyond ``preset``, ``grid``,
    ``initial`` and ``out_dir``, and gives its default value, while
    ``_RULES`` holds what each value must be.  ``grid`` is the grid class the
    runner builds (``_GRID_KEYS`` names the keys it takes), or None for no
    grid.  ``catalog``, if set, builds the preset's watch catalog, name ->
    (functional, Drift | None): the runner watches it and ``parse_config``
    checks ``watch`` against its names.  ``check``, if set, tests the merged
    config across its fields and raises ConfigError.
    """

    name: str
    description: str
    runner: object
    grid: type | None
    defaults: dict
    catalog: object = None
    check: object = None


PRESETS = {
    p.name: p
    for p in (
        Preset("euler2d", "single-field vortex dynamics; energy and enstrophy conservation",
               _run_euler2d, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 10.0, "output_every": 0.1, "seed": 12,
                "snapshot": False, "watch": None,
                "initial": {"kind": "random", "kmax": 4, "amplitude": 0.8}},
               catalog=_euler2d_catalog, check=_check_euler2d),
        Preset("rmhd2d",
               "two-field dynamics: flux-coupled Hamiltonian breaks enstrophy conservation",
               _run_rmhd2d, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-3, "t_end": 1.0, "output_every": 0.01,
                "snapshot": False, "watch": None,
                "initial": {"omega_modes": [],
                            "psi_modes": [[1, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]}},
               catalog=_rmhd2d_catalog),
        Preset("phantom2", "two psi seeds, one omega trajectory: bitwise phantom invariance",
               _run_phantom2, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 10.0, "output_every": 0.1, "seed": 12,
                "snapshot": False,
                "initial": {"omega_kmax": 4, "omega_amplitude": 0.8, "psi_kmax": 4,
                            "psi_amplitude": 1.0, "psi_seeds": [101, 202]}}),
        Preset("phantom3",
               "three-field run with equal flux fields: one generator, bitwise equal orbits",
               _run_phantom3, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 5.0, "output_every": 0.1, "seed": 12,
                "snapshot": False,
                "initial": {"omega_kmax": 4, "omega_amplitude": 0.8, "psi_kmax": 4,
                            "psi_amplitude": 1.0}}),
        Preset("kernel_deficit",
               "kernel state (omega, psi) = (xi(zeta), eta(zeta)) and the deficit witness",
               _run_kernel_deficit, Grid2D,
               {"grid": {"n": 128}, "snapshot": False,
                "initial": {"zeta_modes": [[1, 0, 1.0, 0.0], [0, 1, 1.0, 0.0]],
                            "xi": "square", "eta": "identity"}}),
        Preset("singular_leaf", "orbit on the leaf psi = 0: leaf indicator and interior Casimir",
               _run_singular_leaf, Grid2D,
               {"grid": {"n": 64}, "dt": 1e-2, "t_end": 5.0, "output_every": 0.1, "seed": 12,
                "snapshot": False, "initial": {"omega_kmax": 4, "omega_amplitude": 0.8}}),
        Preset("finitedim",
               "orbit batch for J = x * Jc: sign invariance, step-function drift, closedness",
               _run_finitedim, None,
               {"dt": 1e-3, "t_end": 20.0, "seed": 42, "initial": {"n_orbits": 100, "eps": 0.05}}),
        Preset("ionacoustic1d",
               "acoustic mode dispersion against k/sqrt(1+k^2) plus invariant drifts",
               _run_ionacoustic1d, Grid1D,
               {"grid": {"n": 128}, "dt": 1e-2, "t_end": 50.0, "output_every": 0.05,
                "initial": {"modes": [1, 2], "amplitude": 1e-4}},
               check=_check_ionacoustic1d),
        Preset("kdv_soliton", "soliton transport against the exact translated profile",
               _run_kdv_soliton, Grid1D,
               {"grid": {"n": 512, "l": 40.0}, "dt": 1e-3, "t_end": 10.0, "output_every": 0.1,
                "snapshot": False, "initial": {"c": 1.0, "x0": 10.0}}),
        Preset("jacobi_check", "finite-difference Jacobi residuals for sound and broken operators",
               _run_jacobi_check, None,
               {"seed": 7, "initial": {"step": 1e-5}}),
    )
}


# ---------------------------------------------------------------------------
# artifact writing and entry points
# ---------------------------------------------------------------------------


def run_preset(cfg: RunConfig) -> int:
    """Run a preset and write its artifacts; return 0 if every check passed, else 1.

    This is the one place where a numerical failure, or a failed allocation
    (MemoryError), becomes a failure record.  One inside the time loop keeps
    the partial series and names its step; one outside it (at setup, or in a
    preset without a series) has step null.  An artifact that cannot be
    written (an OSError) is named in the record too, and the others are
    still written, summary.json last.
    The runner runs with numpy's floating-point warnings off: the finiteness
    checks report a blow-up, so the warnings would only repeat it on stderr.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    failure = last = None
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = PRESETS[cfg.preset].runner(cfg)
    except dyn.IntegrationError as exc:
        result = RunResult(series=exc.series)
        failure = {"step": exc.step_index, "message": str(exc)}
        # a lockstep pair's CSV and state_final follow its first member
        last = exc.last_state[0] if isinstance(exc.last_state, tuple) else exc.last_state
    except (NumericalFailure, MemoryError) as exc:
        result = RunResult()
        failure = {"step": None, "message": f"{dyn.failure_name(exc)}: {exc}"}
    wall = time.perf_counter() - t0

    unwritten = []

    def write(name, writer, *args):
        try:
            writer(out_dir / name, *args)
        except OSError as exc:
            unwritten.append(f"cannot write {name}: {exc}")

    if isinstance(last, State):  # finitedim's bare point batch has no snapshot format
        write("state_last_finite.snap", save_snapshot, last)
    if result.series is not None:
        write("diagnostics.csv", result.series.to_csv)
    elif result.rows:
        keys = list(dict.fromkeys(k for row in result.rows for k in row))
        write("diagnostics.csv", dyn.write_csv, keys,
              ([row.get(k, "") for k in keys] for row in result.rows))
    for k, extra in result.extra_series.items():
        write(f"diagnostics_k{k}.csv", extra.to_csv)
    if cfg.snapshot:
        for name, state in result.snapshots.items():
            write(f"{name}.snap", save_snapshot, state)
    if unwritten:  # a run failure keeps its step and message, and names the files after it
        failure = failure or {"step": None, "message": ""}
        failure["message"] = "; ".join(filter(None, (failure["message"], *unwritten)))

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
        "config": asdict(cfg),
        "functionals": functionals,
        "checks": [c.as_dict() for c in result.checks],
        "pass": passed,
        "wall_time_s": wall,
        "failure": failure,
    }
    if result.extras:
        summary["extras"] = result.extras
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=repr, allow_nan=False)
        fh.write("\n")

    for c in result.checks:
        status = "pass" if c.passed else "FAIL"
        note = f"  ({c.note})" if c.note else ""
        print(f"[{status}] {c.name}: {c.value:.6g} {c.op} {c.threshold:g}{note}")
    if failure is not None:
        print(f"[FAIL] {failure['message']}")
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
            print(json.dumps(asdict(cfg), indent=2))
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
