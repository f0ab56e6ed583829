"""Config parsing, bit-exact field serialization, reports, and the CLI.

Field files ("VSF1"): magic, then little-endian u32 kind (0 scalar /
1 complex), u32 symmetry (0 PAIR / 1 RING), u32 n1, u32 n2, f64 h1, h2,
l1, l2, then n1*n2 samples (f64, or f64 pairs for complex), row-major
over (x1, x2).

Config files are flat `key = value` lines with `#` comments; unknown
keys are rejected.  Reports are deterministic `key: value` lines under
`[section]` headers, floats rendered with 17 significant digits.

Exit codes: 0 success, 2 invalid config, 3 solver failure, 4 I/O failure.
"""

import argparse
import math
import struct
import sys
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .ansatz import (ModelParams, Regime, build_ansatz, error_field,
                     factor_axisym_laplacian, kernel_Zd)
from .diagnostics import build_report
from .fields import ComplexField, GridSpec, ScalarField, Symmetry
from .profile import solve_profile, profile_integrals
from .reconstruct import pde_residual, sample_block, unscale
from .reduction import curve_to_csv, numeric_c_curve, predict_d
from .solver import (BracketError, NonConvergenceError, solve_at_separation,
                     solve_projected)

MAGIC = b"VSF1"
_HEADER = struct.Struct("<IIII dddd")


class FieldFormatError(ValueError):
    pass


class ConfigError(ValueError):
    pass


def save_field(f, path):
    kind = 1 if isinstance(f, ComplexField) else 0
    spec = f.spec
    header = MAGIC + _HEADER.pack(kind, spec.symmetry.value, spec.n1, spec.n2,
                                  spec.h1, spec.h2, spec.l1, spec.l2)
    if kind == 1:
        payload = np.ascontiguousarray(f.data, dtype="<c16").tobytes()
    else:
        payload = np.ascontiguousarray(f.data, dtype="<f8").tobytes()
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
    if kind not in (0, 1) or sym not in (0, 1):
        raise FieldFormatError("unknown kind/symmetry")
    if n1 * n2 > 500_000_000:
        raise FieldFormatError("dimension overflow")
    itemsize = 16 if kind == 1 else 8
    expected = 4 + _HEADER.size + n1 * n2 * itemsize
    if len(blob) != expected:
        raise FieldFormatError(
            f"payload size {len(blob)} does not match header ({expected})")
    spec = GridSpec(l1, l2, h1, h2, Symmetry(sym))
    raw = blob[4 + _HEADER.size:]
    if kind == 1:
        data = np.frombuffer(raw, dtype="<c16").reshape(n1, n2).copy()
        return ComplexField(spec, data)
    data = np.frombuffer(raw, dtype="<f8").reshape(n1, n2).copy()
    return ScalarField(spec, data)


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
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


@dataclass
class RunConfig:
    regime: str = "pair_wm"
    eps: float = 0.05
    kappa: float = 0.0
    d_hat: float = 1.0
    d_lo: float = 0.0
    d_hi: float = 0.0
    h: float = 0.25
    l: float = 0.0
    ell_max: float = 30.0
    step: float = 1e-3
    tol: float = 1e-10
    newton_max: int = 50
    newton_tol: float = 1e-8
    krylov_tol: float = 1e-10
    points: int = 6

    @classmethod
    def from_file(cls, path):
        cfg = cls()
        names = {f.name: f.type for f in dc_fields(cls)}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in names:
                    raise ConfigError(f"line {lineno}: unknown key {key!r}")
                cast = int if key in ("newton_max", "points") else (
                    str if key == "regime" else float)
                try:
                    setattr(cfg, key, cast(val))
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: {exc}") from None
        return cfg

    def params(self) -> ModelParams:
        try:
            regime = Regime(self.regime)
        except ValueError:
            raise ConfigError(f"unknown regime {self.regime!r}") from None
        try:
            return ModelParams(regime, self.eps, self.kappa, self.d_hat)
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


def _grid_for(cfg, d):
    side = cfg.l if cfg.l > 0 else math.ceil(2.0 * d / cfg.h - 1e-9) * cfg.h
    sym = Symmetry.RING if cfg.regime.startswith("ring") else Symmetry.PAIR
    return GridSpec(side, side, cfg.h, cfg.h, sym)


def _cmd_profile(cfg, out, args):
    prof = solve_profile(cfg.ell_max, cfg.step, cfg.tol)
    I1, I2 = profile_integrals(prof)
    csv = out / "profile.csv"
    with open(csv, "w") as fh:
        fh.write("ell,rho,drho\n")
        for e, r, dr in zip(prof.knots, prof.rho, prof.drho):
            fh.write(f"{e:.17g},{r:.17g},{dr:.17g}\n")
        fh.write(f"# I1 = {I1:.17g}\n")
        fh.write(f"# I2 = {I2:.17g}\n")
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("profile", {
            "slope_a": prof.slope_a, "tail_c0": prof.tail_c0,
            "knots": len(prof.knots), "I1": I1, "I2": I2,
            "ode_tol": prof.ode_tol,
        }),
    ])
    return 0


def _cmd_build(cfg, out, args):
    params = cfg.params()
    prof = solve_profile(cfg.ell_max, cfg.step, cfg.tol)
    spec = _grid_for(cfg, params.d)
    laplacian_lu = factor_axisym_laplacian(spec) if params.is_ring else None
    V = build_ansatz(params, spec, prof, laplacian_lu)
    sections = [("config", cfg.echo()), ("params", _params_section(params))]
    if args.ansatz_only:
        field_path = out / "ansatz.vsf"
        save_field(V, field_path)
        _, err_norm = error_field(V, params.tag, params)
        rep = build_report(V)
        sections.append(("ansatz", {
            "field": field_path.name,
            "error_norm_star2": err_norm,
            "energy": rep.energy, "charge": rep.charge,
            "bogomolny_margin": rep.bogomolny_margin,
            "vortices": [f"({p[0]:.6g},{p[1]:.6g}):{q:+d}" for p, q in rep.vortices],
        }))
    else:
        Z = kernel_Zd(params, spec, prof, V, laplacian_lu=laplacian_lu)
        del laplacian_lu  # free its fill before the bordered factorization
        res = solve_projected(params, V, Z,
                              newton_max=cfg.newton_max,
                              newton_tol=cfg.newton_tol,
                              krylov_tol=cfg.krylov_tol)
        field_path = out / "solution.vsf"
        save_field(res.u, field_path)
        rep = build_report(res.u, params, V)
        sections.append(("solve", {
            "field": field_path.name,
            "c_mult": res.c_mult, "newton_iters": res.newton_iters,
            "final_residual": res.final_residual,
            "corrector_norm_star": res.corrector_norm_star,
            "d_used": res.d_used,
            "energy": rep.energy, "charge": rep.charge,
            "bogomolny_margin": rep.bogomolny_margin,
            "vortices": [f"({p[0]:.6g},{p[1]:.6g}):{q:+d}" for p, q in rep.vortices],
        }))
    write_report(out / "report.txt", sections)
    return 0


def _cmd_reduce(cfg, out, args):
    params = cfg.params()
    prof = solve_profile(cfg.ell_max, cfg.step, cfg.tol)
    d_ref = predict_d(params)
    d_lo = cfg.d_lo if cfg.d_lo > 0 else d_ref / 2
    d_hi = cfg.d_hi if cfg.d_hi > 0 else 2 * d_ref
    d_list = np.geomspace(d_lo, d_hi, cfg.points)
    curve = numeric_c_curve(params, d_list, prof, h=cfg.h,
                            newton_tol=cfg.newton_tol,
                            krylov_tol=cfg.krylov_tol)
    curve_to_csv(curve, out / "curve.csv")
    try:
        d_star = curve.empirical_root()
    except ValueError as exc:
        raise BracketError(
            f"{exc}; sampled c values {list(curve.c_values)}") from None
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("params", _params_section(params)),
        ("reduce", {
            "predict_d": d_ref, "d_star": d_star,
            "complete": curve.complete,
            "d_values": list(curve.d_values),
            "c_values": list(curve.c_values),
            "c_leading": list(curve.c_leading),
        }),
    ])
    return 0


def _cmd_verify(cfg, out, args):
    f = load_field(args.field)
    if not isinstance(f, ComplexField):
        raise FieldFormatError("verify expects a complex field")
    rep = build_report(f)
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("verify", {
            "field": args.field,
            "energy": rep.energy, "charge": rep.charge,
            "bogomolny_margin": rep.bogomolny_margin,
            "vortices": [f"({p[0]:.6g},{p[1]:.6g}):{q:+d}" for p, q in rep.vortices],
        }),
    ])
    return 0


def _cmd_reconstruct(cfg, out, args):
    params = cfg.params()
    f = load_field(args.field)
    if not isinstance(f, ComplexField):
        raise FieldFormatError("reconstruct expects a complex field")
    U = unscale(f, params, mode="spline")
    ds = args.ds if args.ds else cfg.h / 2
    ring = params.is_ring
    center = (params.d, 0.0, 0.0) if ring else (params.d, 0.0)
    norms = pde_residual(params, U, center, ds)
    t_axis = [0.0]
    tau_axis = [0.0, 0.5, 1.0]
    if ring:
        axes = [np.linspace(params.d - 2, params.d + 2, 5), np.array([0.0]),
                np.linspace(-2, 2, 5)]
    else:
        axes = [np.linspace(params.d - 2, params.d + 2, 9),
                np.linspace(-2, 2, 9)]
    m = sample_block(U, params, t_axis, tau_axis, axes)
    with open(out / "samples.csv", "w") as fh:
        cols = "t,tau," + ("s1,s2,s3" if ring else "s1,s2") + ",m1,m2,m3\n"
        fh.write(cols)
        for jt, tau in enumerate(tau_axis):
            it = 0
            if ring:
                for i, a in enumerate(axes[0]):
                    for j, b in enumerate(axes[1]):
                        for k, c in enumerate(axes[2]):
                            mm = m[it, jt, i, j, k]
                            fh.write(f"0,{tau:.17g},{a:.17g},{b:.17g},{c:.17g},"
                                     f"{mm[0]:.17g},{mm[1]:.17g},{mm[2]:.17g}\n")
            else:
                for i, a in enumerate(axes[0]):
                    for j, b in enumerate(axes[1]):
                        mm = m[it, jt, i, j]
                        fh.write(f"0,{tau:.17g},{a:.17g},{b:.17g},"
                                 f"{mm[0]:.17g},{mm[1]:.17g},{mm[2]:.17g}\n")
    write_report(out / "report.txt", [
        ("config", cfg.echo()),
        ("params", _params_section(params)),
        ("reconstruct", {"field": args.field, "ds": ds,
                         "residual_l2": norms["l2"], "residual_sup": norms["sup"],
                         "n_samples": norms["n_samples"]}),
    ])
    return 0


def _cmd_sweep(cfg, out, args):
    eps_list = [float(x) for x in args.eps_list.split(",")]
    prof = solve_profile(cfg.ell_max, cfg.step, cfg.tol)
    rows = []
    for eps in eps_list:
        c2 = RunConfig(**{**cfg.echo(), "eps": eps})
        params = c2.params()
        spec = _grid_for(c2, params.d)
        V = build_ansatz(params, spec, prof)
        _, err = error_field(V, params.tag, params)
        row = {"eps": eps, "d": params.d, "error_norm_star2": err}
        if args.solve:
            res = solve_at_separation(params, params.d, prof, h=c2.h,
                                      newton_tol=c2.newton_tol,
                                      krylov_tol=c2.krylov_tol)
            row.update(corrector_norm_star=res.corrector_norm_star,
                       c_mult=res.c_mult, newton_iters=res.newton_iters)
        rows.append(row)
    sections = [("config", cfg.echo())]
    for k, row in enumerate(rows):
        sections.append((f"sweep_{k}", row))
    write_report(out / "report.txt", sections)
    return 0


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
    sub.add_parser("reduce", help="numeric c(d) curve and its root")
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


def main(argv=None) -> int:
    from pathlib import Path

    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.command in ("pair", "ring"):
            cfg.regime = {"pair": cfg.regime if cfg.regime.startswith("pair") else "pair_wm",
                          "ring": cfg.regime if cfg.regime.startswith("ring") else "ring_wm"}[args.command]
            if getattr(args, "eps", None) is not None:
                cfg.eps = args.eps
            if getattr(args, "kappa", None) is not None:
                cfg.kappa = args.kappa
                if cfg.kappa > 0 and cfg.regime.endswith("wm"):
                    cfg.regime = cfg.regime.replace("wm", "sch")
            if getattr(args, "dhat", None) is not None:
                cfg.d_hat = args.dhat
        cfg.params() if args.command in ("pair", "ring", "reduce", "reconstruct") else None
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    try:
        return _COMMANDS[args.command](cfg, out, args)
    except (NonConvergenceError, BracketError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (FieldFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
