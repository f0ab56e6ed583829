"""Config parsing, bit-exact field serialization, reports, and the CLI.

Field files ("VSF1"): magic, then little-endian u32 kind (1, complex:
the one kind), u32 symmetry (0 PAIR / 1 RING), u32 n1, u32 n2, f64 h1,
h2, l1, l2, then n1*n2 samples (f64 pairs), row-major over (x1, x2).
`load_field` refuses any other kind, and a spacing outside (0,
MAX_SPACING], with FieldFormatError.

Config files are flat `key = value` lines with `#` comments; unknown
keys and regimes are rejected.  `pair` and `ring` set the geometry of
the config's regime and keep its flow.  Each case is the library's: its
grid is `solver._grid_for`'s, and it is solved by
`solver.solve_at_separation`.
Reports (`key: value` lines under `[section]` headers) and CSV files
are deterministic, floats in the shortest form that reads back to the
same float (`float.__repr__`, which numpy scalars share).

Exit codes are set in one place, `main`: 0 success; 2 any value a
command refuses (an unreadable config file, an unknown key, a config
or option value the library rejects with a ValueError or an arithmetic
error, or a case too large for the memory available, a MemoryError); 3
solver failure; 4 I/O failure (including a malformed field file).
"""

import argparse
import struct
import sys
from dataclasses import dataclass, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from .ansatz import ModelParams, Regime, build_ansatz
from .diagnostics import build_report, corrector_norms, error_field
from .fields import MAX_FIELD_SAMPLES, MAX_SPACING, ComplexField, GridSpec, Symmetry
from .profile import ODE_TOL, solve_profile, profile_integrals
from .reconstruct import pde_residual, sample_block, unscale
from .reduction import leading_c, predict_d
from .solver import (NEWTON_TOL, BracketError, NonConvergenceError, _grid_for, check_tolerances,
                     solve_at_separation, solve_balanced)

MAGIC = b"VSF1"
# `reconstruct` samples a block 11 h / 2 wide per spatial axis, h the field
# file's spacing; a --ds that would put more than this many points in the
# block is refused
RECONSTRUCT_MAX_POINTS = 10**5
_HEADER = struct.Struct("<IIII dddd")


class FieldFormatError(ValueError):
    pass


class ConfigError(ValueError):
    pass


def save_field(f: ComplexField, path):
    spec = f.spec
    header = MAGIC + _HEADER.pack(1, spec.symmetry.value, spec.n1, spec.n2,
                                  spec.h1, spec.h2, spec.l1, spec.l2)
    payload = np.ascontiguousarray(f.data, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_field(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FieldFormatError(f"bad magic {blob[:4]!r}")
    if len(blob) < 4 + _HEADER.size:
        raise FieldFormatError("truncated header")
    kind, sym, n1, n2, h1, h2, l1, l2 = _HEADER.unpack_from(blob, 4)
    if kind != 1 or sym not in (0, 1):
        raise FieldFormatError(f"kind {kind} or symmetry {sym} unknown: a field file holds "
                               f"kind 1 (complex) and symmetry 0 or 1")
    if n1 * n2 > MAX_FIELD_SAMPLES:
        raise FieldFormatError("dimension overflow")
    expected = 4 + _HEADER.size + n1 * n2 * 16
    if len(blob) != expected:
        raise FieldFormatError(
            f"payload size {len(blob)} does not match header ({expected})")
    if not (0.0 < h1 <= MAX_SPACING and 0.0 < h2 <= MAX_SPACING):
        raise FieldFormatError(f"spacings must lie in (0, {MAX_SPACING}]")
    try:
        data = np.frombuffer(blob, dtype="<c16", offset=4 + _HEADER.size).reshape(n1, n2)
        field = ComplexField(GridSpec(l1, l2, h1, h2, Symmetry(sym)), data.copy())
    except ValueError as exc:
        raise FieldFormatError(str(exc)) from None
    # finite samples whose squares overflow would turn |u|^2 and every norm
    # downstream into inf or nan; one pass over the samples refuses them
    if not np.isfinite(np.vdot(data, data)):
        raise FieldFormatError("samples too large: the sum of their squared moduli overflows")
    return field


def _fmt(v):
    if isinstance(v, float):
        return float.__repr__(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def write_report(path, sections):
    """sections: list of (name, dict) written as deterministic key: value
    lines (no timestamps)."""
    lines = []
    for name, entries in sections:
        lines.append(f"[{name}]")
        for k, v in entries.items():
            lines.append(f"{k}: {_fmt(v)}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def write_csv(path, columns, rows, notes=()):
    """A header of `columns`, a line per row and a `# name = value` line per note."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in [columns, *rows])
        fh.writelines(f"# {name} = {_fmt(v)}\n" for name, v in notes)


@dataclass
class RunConfig:
    regime: str = "pair_wm"
    eps: float = 0.05
    kappa: float = 0.0
    d_hat: float = 1.0
    d_lo: float = 0.0
    d_hi: float = 0.0
    h: float = 0.25
    newton_tol: float = NEWTON_TOL

    @classmethod
    def from_file(cls, path):
        cfg = cls()
        types = {f.name: f.type for f in dc_fields(cls)}
        try:
            lines = Path(path).read_text().split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, types[key](val))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        return cfg

    def regime_value(self) -> Regime:
        try:
            return Regime(self.regime)
        except ValueError:
            raise ConfigError(f"unknown regime {self.regime!r}") from None

    def params(self) -> ModelParams:
        try:
            return ModelParams(self.regime_value(), self.eps, self.kappa, self.d_hat)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def echo(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def _params_section(p: ModelParams):
    return {
        "regime": p.regime.value, "eps": p.eps, "kappa": p.kappa,
        "d_hat": p.d_hat, "d": p.d, "c": p.c, "omega": p.omega,
        "drive": p.drive, "tag": p.tag,
    }


def _profile():
    try:
        return solve_profile()
    except RuntimeError as exc:
        raise NonConvergenceError(f"profile: {exc}") from None


def _report_entries(rep):
    return {
        "energy": rep.energy, "charge": rep.charge,
        "bogomolny_margin": rep.bogomolny_margin,
        "vortices": [f"({p[0]:.6g},{p[1]:.6g}):{q:+d}" for p, q in rep.vortices],
    }


def _cmd_profile(cfg, out, args):
    prof = _profile()
    I1, I2 = profile_integrals(prof)
    write_csv(out / "profile.csv", ["ell", "rho", "drho"],
              zip(prof.knots, prof.rho, prof.drho), notes=[("I1", I1), ("I2", I2)])
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("profile", {
            "slope_a": prof.slope_a, "tail_c0": prof.tail_c0,
            "knots": len(prof.knots), "I1": I1, "I2": I2,
            "ode_tol": ODE_TOL,
        }),
    ])


def _cmd_build(cfg, out, args):
    params = cfg.params()
    prof = _profile()
    sections = [("config", cfg.echo()), ("params", _params_section(params))]
    if args.ansatz_only:
        V = build_ansatz(params, _grid_for(params.d, cfg.h, params.symmetry), prof)
        field_path = out / "ansatz.vsf"
        save_field(V, field_path)
        sections.append(("ansatz", {
            "field": field_path.name, "error_norm_star2": error_field(V, params)[1],
            **_report_entries(build_report(V)),
        }))
    else:
        res = solve_at_separation(params, params.d, prof, h=cfg.h, newton_tol=cfg.newton_tol)
        field_path = out / "solution.vsf"
        save_field(res.u, field_path)
        rep = build_report(res.u, params, res.V_d)
        sections.append(("solve", {
            "field": field_path.name,
            "c_mult": res.c_mult, "newton_iters": res.newton_iters,
            "final_residual": res.final_residual,
            "corrector_norm_star": rep.weighted_norms["star"],
            "d_used": res.d_used,
            **_report_entries(rep),
        }))
    write_report(out / "report.txt", sections)


def _cmd_reduce(cfg, out, args):
    params = cfg.params()
    if not (cfg.d_lo >= 0 and cfg.d_hi >= 0):
        raise ConfigError(f"d_lo and d_hi must be >= 0 (0 means the default), "
                          f"got {cfg.d_lo} and {cfg.d_hi}")
    d_ref = None
    if not (cfg.d_lo > 0 and cfg.d_hi > 0):
        try:
            d_ref = predict_d(params)
        except ValueError as exc:
            raise ConfigError(f"no default bracket: {exc}; set d_lo and d_hi") from None
    d_lo = cfg.d_lo if cfg.d_lo > 0 else d_ref / 2
    d_hi = cfg.d_hi if cfg.d_hi > 0 else 2 * d_ref
    if not 1.0 < d_lo < d_hi:
        raise ConfigError(f"need 1 < d_lo < d_hi, got d_lo = {d_lo} and d_hi = {d_hi}")
    res, d_star = solve_balanced(params, (d_lo, d_hi), _profile(), h=cfg.h,
                                 newton_tol=cfg.newton_tol)
    field_path = out / "solution.vsf"
    save_field(res.u, field_path)
    write_csv(out / "curve.csv", ["d", "c", "n1", "lu_reused", "warm_start", "c_leading"],
              ((*rec, leading_c(rec[0], params)) for rec in res.balance_history))
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("params", _params_section(params)),
        ("reduce", {
            "predict_d": "none" if d_ref is None else d_ref, "d_star": d_star,
            "c_mult": res.c_mult, "solves": len(res.balance_history),
            "fallbacks": res.fallbacks, "field": field_path.name,
        }),
    ])


def _cmd_verify(cfg, out, args):
    f = load_field(args.field)
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("verify", {"field": args.field, **_report_entries(build_report(f))}),
    ])


def _cmd_reconstruct(cfg, out, args):
    params = cfg.params()
    f = load_field(args.field)
    h = f.spec.h1
    ds = args.ds if args.ds else h / 2
    if not ds > 0:
        raise ConfigError(f"--ds must be > 0, or 0 for h/2; got {args.ds} at the field's "
                          f"h = {h}")
    U = unscale(f, params, mode="spline")
    ring = params.is_ring
    center = (params.d, 0.0, 0.0) if ring else (params.d, 0.0)
    # a fixed physical width in cells of the field, so a refinement keeps
    # the block outside the excluded core disc (12 points at the default
    # ds = h/2)
    nspace = round(5.5 * h / ds) + 1
    if nspace ** len(center) > RECONSTRUCT_MAX_POINTS:
        raise ConfigError(f"--ds {ds} puts {nspace} points on each axis of the residual "
                          f"block (at most {RECONSTRUCT_MAX_POINTS} points in all)")
    t_axis = [0.0]
    tau_axis = [0.0, 0.5, 1.0]
    if ring:
        axes = [np.linspace(params.d - 2, params.d + 2, 5), np.array([0.0]),
                np.linspace(-2, 2, 5)]
    else:
        axes = [np.linspace(params.d - 2, params.d + 2, 9),
                np.linspace(-2, 2, 9)]
    norms = pde_residual(params, U, center, ds, nspace=nspace)
    m = sample_block(U, params, t_axis, tau_axis, axes)
    write_csv(out / "samples.csv",
              ["t", "tau", *(f"s{k + 1}" for k in range(len(axes))), "m1", "m2", "m3"],
              ([0, tau, *(a[i] for a, i in zip(axes, idx)), *m[(0, jt) + idx]]
               for jt, tau in enumerate(tau_axis)
               for idx in np.ndindex(*(a.size for a in axes))))
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("params", _params_section(params)),
        ("reconstruct", {"field": args.field, "ds": ds,
                         "residual_l2": norms["l2"], "residual_sup": norms["sup"],
                         "n_samples": norms["n_samples"]}),
    ])


def _cmd_sweep(cfg, out, args):
    try:
        eps_list = [float(x) for x in args.eps_list.split(",")]
    except ValueError:
        raise ConfigError(f"--eps-list must be comma-separated numbers, "
                          f"got {args.eps_list!r}") from None
    cases = [replace(cfg, eps=eps).params() for eps in eps_list]
    specs = [_grid_for(p.d, cfg.h, p.symmetry) for p in cases]  # before the profile solve
    prof = _profile()
    rows = []
    for params, spec in zip(cases, specs):
        row = {"eps": params.eps, "d": params.d}
        if args.solve:
            res = solve_at_separation(params, params.d, prof, h=cfg.h, newton_tol=cfg.newton_tol)
            row.update(error_norm_star2=error_field(res.V_d, params)[1],
                       corrector_norm_star=corrector_norms(res.u, res.V_d, params)["star"],
                       c_mult=res.c_mult, newton_iters=res.newton_iters)
        else:
            row["error_norm_star2"] = error_field(build_ansatz(params, spec, prof), params)[1]
        rows.append(row)
    write_report(out / "report.txt", [("config", cfg.echo())]
                 + [(f"sweep_{k}", row) for k, row in enumerate(rows)])


def _build_parser():
    ap = argparse.ArgumentParser(prog="vortexflow",
                                 description="vortex soliton construction and verification")
    ap.add_argument("--config", help="flat key = value config file")
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("profile", help="solve the core profile and dump CSV")
    for name in ("pair", "ring"):
        p = sub.add_parser(name, help=f"build / solve a {name} configuration")
        p.add_argument("--ansatz-only", action="store_true")
        p.add_argument("--eps", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--dhat", type=float)
    sub.add_parser("reduce", help="balanced soliton: the root of c(d)")
    pv = sub.add_parser("verify", help="diagnostics report for a field file")
    pv.add_argument("field")
    pr = sub.add_parser("reconstruct", help="space-time samples + residuals")
    pr.add_argument("field")
    pr.add_argument("--ds", type=float, default=0.0)
    ps = sub.add_parser("sweep", help="eps sweep of ansatz error norms")
    ps.add_argument("--eps-list", default="0.1,0.05,0.025")
    ps.add_argument("--solve", action="store_true")
    return ap


_COMMANDS = {
    "profile": _cmd_profile,
    "pair": _cmd_build,
    "ring": _cmd_build,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
}


def _config(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    check_tolerances(cfg.newton_tol)  # every report echoes it
    _, flow = cfg.regime_value().value.split("_")  # and the regime
    if args.command in ("pair", "ring"):
        if args.eps is not None:
            cfg.eps = args.eps
        if args.kappa is not None:
            cfg.kappa = args.kappa
            if cfg.kappa > 0:
                flow = "sch"
        if args.dhat is not None:
            cfg.d_hat = args.dhat
        # the command sets the geometry; the config (or --kappa) the flow
        cfg.regime = f"{args.command}_{flow}"
    if args.command in ("pair", "ring", "reduce", "reconstruct"):
        params = cfg.params()
    if args.command in ("pair", "ring", "reconstruct"):
        # before the profile solve; `reconstruct`'s report echoes the config's grid
        _grid_for(params.d, cfg.h, params.symmetry)
    return cfg


def main(argv=None) -> int:
    """Run one command; the one place that maps its outcome to an exit
    code.  FieldFormatError and ConfigError are both ValueErrors, so the
    I/O clause comes first; any other ValueError or arithmetic error is a
    value the command refuses."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out, args)
    except (FieldFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a case's arrays: its grid is too large to hold
        print(f"config error: not enough memory for this case: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, BracketError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
