import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexflow import ansatz, cli_io, solver
from vortexflow.cli_io import (ConfigError, FieldFormatError, RunConfig,
                               load_field, main, save_field)
from vortexflow.fields import ComplexField, GridSpec, Symmetry
from vortexflow.reconstruct import pde_residual
from vortexflow.reduction import leading_c
from vortexflow.solver import solve_balanced

# VSF1 header offsets: magic, u32 kind, symmetry, n1, n2, f64 h1, h2, l1, l2
_U32_AT = (4, 8, 12, 16)
_F64_AT = (20, 28, 36, 44)
_PAYLOAD_AT = 52


def random_complex_field(rng):
    spec = GridSpec(4.0, 3.0, 0.25, 0.25, Symmetry.RING)
    data = rng.standard_normal((spec.n1, spec.n2)) \
        + 1j * rng.standard_normal((spec.n1, spec.n2))
    return ComplexField(spec, data)


def test_roundtrip_bitwise(tmp_path, rng):
    f = random_complex_field(rng)
    path = tmp_path / "f.vsf"
    save_field(f, path)
    g = load_field(path)
    assert isinstance(g, ComplexField)
    assert g.spec == f.spec
    assert g.data.tobytes() == f.data.tobytes()


def test_bad_magic(tmp_path, rng):
    f = random_complex_field(rng)
    path = tmp_path / "f.vsf"
    save_field(f, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldFormatError):
        load_field(path)


def test_truncated_payload(tmp_path, rng):
    f = random_complex_field(rng)
    path = tmp_path / "f.vsf"
    save_field(f, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(FieldFormatError):
        load_field(path)


def test_config_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("eps = 0.1\nkappa = 0.25   # comment\nregime = pair_sch\n")
    cfg = RunConfig.from_file(cfg_path)
    assert cfg.eps == 0.1 and cfg.kappa == 0.25
    params = cfg.params()
    assert params.kappa == 0.25

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)

    invalid = tmp_path / "invalid.cfg"
    invalid.write_text("eps = 0.9\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(invalid).params()

    typed = tmp_path / "typed.cfg"
    typed.write_text("h = 1\n")
    h = RunConfig.from_file(typed).h
    assert h == 1.0 and type(h) is float

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("h = 0.5.5\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(malformed)


def test_cli_invalid_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("eps = 0.9\n")
    code = main(["--config", str(bad), "--out", str(tmp_path), "pair", "--ansatz-only"])
    assert code == 2


def test_cli_missing_field_exit_4(tmp_path):
    code = main(["--out", str(tmp_path), "verify", str(tmp_path / "nope.vsf")])
    assert code == 4


def _malformed(blob, case):
    blob = bytearray(blob)
    n1, n2 = struct.unpack_from("<II", blob, _U32_AT[2])
    h1, = struct.unpack_from("<d", blob, _F64_AT[0])
    if case == "spacing":
        struct.pack_into("<dddd", blob, _F64_AT[0], 0.75, 0.75, n1 * 0.75, n2 * 0.75)
    elif case == "nan":
        struct.pack_into("<d", blob, _PAYLOAD_AT, float("nan"))
    elif case == "huge":  # finite, but |u|^2 overflows
        struct.pack_into("<d", blob, _PAYLOAD_AT, 1e200)
    elif case == "scalar":  # the retired kind 0: one f64 a sample, no x2 parity
        struct.pack_into("<I", blob, _U32_AT[0], 0)
        del blob[_PAYLOAD_AT + 8 * n1 * n2:]
    else:
        struct.pack_into("<d", blob, _F64_AT[2], n1 * h1 + 1.0)
    return bytes(blob)


@pytest.mark.parametrize("case", ["spacing", "nan", "extent", "huge", "scalar"])
def test_malformed_field_exit_4(tmp_path, rng, case):
    path = tmp_path / "f.vsf"
    save_field(random_complex_field(rng), path)
    path.write_bytes(_malformed(path.read_bytes(), case))
    with pytest.raises(FieldFormatError):
        load_field(path)
    assert main(["--out", str(tmp_path / "out"), "verify", str(path)]) == 4
    assert main(["--out", str(tmp_path / "out"), "reconstruct", str(path)]) == 4


@pytest.fixture(scope="module")
def valid_vsf(tmp_path_factory):
    path = tmp_path_factory.mktemp("vsf") / "valid.vsf"
    spec = GridSpec(1.0, 1.25, 0.25, 0.25, Symmetry.PAIR)
    data = np.arange(spec.n1 * spec.n2).reshape(spec.n1, spec.n2) * (1 + 0.5j)
    save_field(ComplexField(spec, data), path)
    return path.read_bytes()


# (offset, struct format, value); byte offsets wrap around the blob length
_edits = st.one_of(
    st.tuples(st.integers(0, 10_000), st.just("B"), st.integers(0, 255)),
    st.tuples(st.sampled_from(_U32_AT), st.just("<I"), st.integers(0, 2**32 - 1)),
    st.tuples(st.sampled_from(_F64_AT), st.just("<d"),
              st.sampled_from([math.inf, math.nan, 5e-324, 1e308, 0.75]) | st.floats()),
)


@settings(deadline=None, max_examples=300)
@given(edits=st.lists(_edits, max_size=4), cut=st.none() | st.integers(0, 10_000))
def test_mutated_field_loads_or_raises_format_error(valid_vsf, tmp_path_factory, edits,
                                                    cut):
    blob = bytearray(valid_vsf)
    for at, fmt, value in edits:
        struct.pack_into(fmt, blob, at % len(blob) if fmt == "B" else at, value)
    path = tmp_path_factory.getbasetemp() / "mutated.vsf"
    path.write_bytes(bytes(blob[:cut]))
    try:
        f = load_field(path)
    except FieldFormatError:
        return
    assert isinstance(f, ComplexField)


# config keys that no longer exist: `points` (the sampled c(d) curve),
# `krylov_tol` (the forcing term's floor), `l` (a side other than the case's
# 2d), `ell_max`, `tol` and `step` (the profile solve's, now the constants
# of `profile`) and `newton_max` (now `solver.NEWTON_MAX`)
RETIRED_KEYS = {"points", "krylov_tol", "l", "ell_max", "tol", "step", "newton_max"}


@pytest.mark.parametrize("line, command", [
    ("h = 0.7", ["pair", "--ansatz-only"]),
    ("l = 10.1", ["pair", "--ansatz-only"]),  # a retired key is refused as unknown
    ("h = 0.7", ["sweep", "--eps-list", "0.1"]),
    ("h = 0.7", ["reduce"]),
    ("points = 1", ["reduce"]),  # a retired key is refused as unknown
    ("ell_max = 5", ["profile"]),  # a retired key is refused as unknown
    ("step = 0.5", ["profile"]),  # a retired key is refused as unknown
    ("tol = 0", ["profile"]),  # a retired key is refused as unknown
    ("regime = ring_wm\neps = 0.2", ["reduce"]),  # predict_d has no root: no default bracket
    ("", ["sweep", "--eps-list", "abc"]),
    ("ell_max = 31", ["profile"]),  # a retired key is refused as unknown
    ("d_lo = 10\nd_hi = 10", ["reduce"]),  # not d_lo < d_hi
    ("d_lo = 0.75\nd_hi = 1.0", ["reduce"]),  # not 1 < d_lo
    ("newton_tol = nan", ["pair"]),
    ("newton_tol = inf", ["pair"]),
    ("krylov_tol = nan", ["ring"]),  # a retired key is refused as unknown, whatever its value
    ("newton_tol = 0", ["sweep", "--eps-list", "0.1", "--solve"]),
    ("krylov_tol = -1e-10", ["reduce"]),
    ("krylov_tol = inf", ["reduce"]),
    ("tol = 1e-11", ["profile"]),  # a retired key is refused as unknown
    ("step = 2e-4\ntol = 1e-10", ["profile"]),  # a retired key is refused as unknown
    ("newton_max = 0", ["pair"]),  # a retired key is refused as unknown
    ("newton_max = -3", ["reduce"]),  # a retired key is refused as unknown
    ("l = -4", ["pair"]),  # a retired key is refused as unknown
    ("l = -4", ["sweep", "--eps-list", "0.1"]),  # a retired key is refused as unknown
    ("d_lo = -5", ["reduce"]),
    ("d_hi = -40", ["reduce"]),
    ("h = 0", ["pair", "--ansatz-only"]),  # no default domain at h = 0 or nan
    ("h = nan", ["ring", "--ansatz-only"]),
    ("", ["pair", "--ansatz-only", "--eps", "1e-6"]),  # a grid too large to allocate
    ("d_hi = 1e9", ["reduce"]),  # d_hat = eps d above 100
    ("eps = 0.001\nd_hi = 1e5", ["reduce"]),  # the grid of d_hi is too large
    ("l = 4", ["sweep", "--eps-list", "0.1"]),  # a retired key is refused as unknown
])
def test_cli_out_of_range_config_exit_2(tmp_path, line, command, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + command) == 2
    err = capsys.readouterr().err
    if line.startswith("regime = ring_wm"):
        # the refusal says how to give the bracket that predict_d cannot
        assert "d_lo" in err and "d_hi" in err
    if {kv.split(" = ")[0] for kv in line.splitlines()} & RETIRED_KEYS:
        assert "unknown key" in err


@pytest.mark.parametrize("command", ["profile", "verify", "reconstruct"])
def test_cli_newton_tol_is_refused_by_every_command(tmp_path, pair_ansatz_file, command,
                                                    capsys):
    # every report echoes newton_tol, so no command accepts one it cannot use
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\nnewton_tol = -1\n")
    args = [command] if command == "profile" else [command, str(pair_ansatz_file)]
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + args) == 2
    assert "newton_tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_memory_error_exit_2(tmp_path, monkeypatch, capsys):
    # a case whose arrays do not fit in memory is a grid the command refuses
    def oversized(*args):
        raise MemoryError("Unable to allocate the case's grid")

    monkeypatch.setattr(cli_io, "build_ansatz", oversized)
    assert main(["--out", str(tmp_path / "out"), "pair", "--ansatz-only"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_unreadable_config_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path),
                 "profile"]) == 2
    undecodable = tmp_path / "bin.cfg"
    undecodable.write_bytes(b"\xff\xfe\x00eps = 0.1\n")
    assert main(["--config", str(undecodable), "--out", str(tmp_path), "profile"]) == 2


def test_cli_out_is_a_file_exit_4(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--out", str(taken), "profile"]) == 4


def test_cli_profile_and_reports(tmp_path):
    out = tmp_path / "prof"
    code = main(["--out", str(out), "profile"])
    assert code == 0
    csv = (out / "profile.csv").read_text().strip().splitlines()
    footer = [ln for ln in csv if ln.startswith("# I2")]
    assert footer
    i2 = float(footer[0].split("=")[1])
    assert abs(i2 - 0.125) <= 1e-6
    report = (out / "report.txt").read_text()
    assert "[profile]" in report and "slope_a" in report


def test_cli_pair_ansatz_verify_pipeline(tmp_path):
    out = tmp_path / "pair"
    code = main(["--out", str(out), "pair", "--ansatz-only", "--eps", "0.1"])
    assert code == 0
    assert (out / "ansatz.vsf").exists()
    rep = (out / "report.txt").read_text()
    assert ":+1" in rep.replace(" ", "")
    # each float in its shortest round-trip form
    config = _report_section(out / "report.txt", "config")
    assert (config["eps"], config["kappa"], config["newton_tol"]) == ("0.1", "0.0", "1e-11")

    out2 = tmp_path / "verify"
    code = main(["--out", str(out2), "verify", str(out / "ansatz.vsf")])
    assert code == 0
    rep2 = (out2 / "report.txt").read_text()
    assert "charge" in rep2


def test_cli_reports_deterministic(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("eps = 0.1\nh = 0.5\n")
    for command in (["pair", "--ansatz-only", "--eps", "0.1"],
                    ["--config", str(cfg), "reduce"]):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / command[-1] / name
            assert main(["--out", str(out)] + command) == 0
            outs.append((out / "report.txt").read_bytes())
        assert outs[0] == outs[1]


@given(x=st.floats(allow_nan=False, allow_infinity=False), as_numpy=st.booleans())
def test_report_floats_are_their_shortest_round_trip(x, as_numpy):
    v = np.float64(x) if as_numpy else x
    text = cli_io._fmt(v)
    assert float(text) == x and text == float.__repr__(float(v))


def test_cli_ring_ansatz(tmp_path):
    out = tmp_path / "ring"
    code = main(["--out", str(out), "ring", "--ansatz-only", "--eps", "0.05",
                 "--dhat", "0.3"])
    assert code == 0
    rep = (out / "report.txt").read_text()
    assert "ring_wm" in rep and "error_norm_star2" in rep


@pytest.mark.parametrize("config, command, regime", [
    ("regime = pair_sch\nkappa = 0.25\n", "ring", "ring_sch"),
    ("regime = pair_sch\n", "ring", "ring_sch"),
    ("regime = ring_sch\n", "pair", "pair_sch"),
    ("regime = ring_wm\n", "pair", "pair_wm"),
], ids=["pair_sch-kappa-as-ring", "pair_sch-as-ring", "ring_sch-as-pair", "ring_wm-as-pair"])
def test_cli_build_command_sets_the_geometry_and_keeps_the_flow(tmp_path, config, command,
                                                                regime):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "eps = 0.1\nd_hat = 2.4\nh = 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command, "--ansatz-only"]) == 0
    assert _report_section(out / "report.txt", "params")["regime"] == regime
    assert _report_section(out / "report.txt", "config")["regime"] == regime


@pytest.mark.parametrize("command", [["pair", "--ansatz-only"], ["ring", "--ansatz-only"],
                                     ["profile"]])
def test_cli_unknown_regime_exit_2(tmp_path, command, capsys):
    # a mistyped regime is named in the refusal, not replaced by the command's
    cfg = tmp_path / "run.cfg"
    cfg.write_text("regime = pear_wm\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + command) == 2
    assert "pear_wm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, regime", [("ring", "pair_wm"), ("pair", "ring_wm")])
def test_cli_reconstruct_refuses_a_field_of_the_other_symmetry(tmp_path, field, regime,
                                                               capsys):
    made = tmp_path / field
    assert main(["--out", str(made), field, "--ansatz-only", "--eps", "0.1",
                 "--dhat", "2.4"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"regime = {regime}\neps = 0.1\nd_hat = 2.4\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "rec"), "reconstruct",
                 str(made / "ansatz.vsf")]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "rec" / "report.txt").exists()


def test_cli_ring_solve_factors_laplacian_once(tmp_path):
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["--out", str(out), "ring", "--eps", "0.05", "--dhat", "0.3"]) == 0
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1] and b"c_mult" in reports[0]


def test_cli_sweep_solves_on_its_error_norm_grid(tmp_path, monkeypatch):
    grids = set()

    def recorded(params, spec, profile, _build=ansatz.build_pair):
        grids.add((spec.n1, spec.n2))
        return _build(params, spec, profile)

    monkeypatch.setattr(ansatz, "build_pair", recorded)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("eps = 0.1\nh = 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "sweep", "--eps-list", "0.1", "--solve"]) == 0
    assert grids == {(40, 40)}  # d = 10: the default side 2d = 20
    assert "c_mult" in (out / "report.txt").read_text()


@pytest.mark.parametrize("command", [
    ["pair"], ["sweep", "--eps-list", "0.1", "--solve"], ["reduce"]])
def test_cli_newton_max_reaches_every_solve(tmp_path, monkeypatch, command):
    # every command's solves read solver.NEWTON_MAX when they run
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    cfg = tmp_path / "one_step.cfg"
    cfg.write_text("eps = 0.1\nh = 0.5\nnewton_tol = 1e-30\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + command) == 3


def _report_section(path, name):
    """The `key: value` lines of one `[name]` section of a report."""
    section = path.read_text().split(f"[{name}]\n")[1].split("\n\n")[0]
    return dict(line.split(": ", 1) for line in section.splitlines())


def test_cli_reduce_pair_is_solve_balanced(tmp_path, profile):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("eps = 0.1\nh = 0.5\n")
    out = tmp_path / "reduce"
    assert main(["--config", str(cfg), "--out", str(out), "reduce"]) == 0
    params = RunConfig.from_file(cfg).params()
    res, d_star = solve_balanced(params, (5.0, 20.0), profile, h=0.5)
    section = _report_section(out / "report.txt", "reduce")
    assert section["d_star"] == cli_io._fmt(d_star)
    assert section["predict_d"] == "10.0" and section["field"] == "solution.vsf"
    assert (out / "curve.csv").read_text().splitlines() == [
        "d,c,n1,lu_reused,warm_start,c_leading",
        *(",".join(map(cli_io._fmt, (*rec, leading_c(rec[0], params))))
          for rec in res.balance_history)]
    assert main(["--out", str(tmp_path / "verify"), "verify",
                 str(out / "solution.vsf")]) == 0


def test_cli_reduce_ring_needs_a_bracket_only_without_one(tmp_path):
    # 2 eps |log eps| = 0.46 >= 1/e: the leading-order law has no root, but
    # the numeric c(d) changes sign on (16, 32)
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("regime = ring_sch\neps = 0.1\nd_hat = 2.4\nh = 0.5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "none"), "reduce"]) == 2
    cfg.write_text(cfg.read_text() + "d_lo = 16\nd_hi = 32\n")
    out = tmp_path / "bracket"
    assert main(["--config", str(cfg), "--out", str(out), "reduce"]) == 0
    assert _report_section(out / "report.txt", "reduce")["predict_d"] == "none"


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = main(["--out", str(out), "sweep", "--eps-list", "0.1"])
    assert code == 0
    rep = (out / "report.txt").read_text()
    assert "[sweep_0]" in rep and "error_norm_star2" in rep


@pytest.fixture(scope="module")
def pair_ansatz_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    assert main(["--out", str(out), "pair", "--ansatz-only", "--eps", "0.1"]) == 0
    return out / "ansatz.vsf"


def test_cli_reconstruct(tmp_path, pair_ansatz_file):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("eps = 0.1\nregime = pair_wm\n")
    out = tmp_path / "rec"
    code = main(["--config", str(cfg), "--out", str(out),
                 "reconstruct", str(pair_ansatz_file)])
    assert code == 0
    assert (out / "samples.csv").exists()
    rep = (out / "report.txt").read_text()
    assert "residual_l2" in rep


def test_cli_reconstruct_block_follows_the_field_spacing(tmp_path, pair_ansatz_file):
    # the block's width and default ds come from the field's h = 0.25, as
    # its excluded core disc does, so a config h below it changes nothing
    sections = {}
    for h in ("0.25", "0.1", "0.05"):
        cfg = tmp_path / f"h{h}.cfg"
        cfg.write_text(f"eps = 0.1\nregime = pair_wm\nh = {h}\n")
        out = tmp_path / f"rec{h}"
        assert main(["--config", str(cfg), "--out", str(out), "reconstruct",
                     str(pair_ansatz_file)]) == 0
        sections[h] = (out / "report.txt").read_text().split("[reconstruct]")[1]
    assert sections["0.1"] == sections["0.05"] == sections["0.25"]
    assert "ds: 0.125\n" in sections["0.25"]


@pytest.mark.parametrize("config, ds", [
    ("", "0"),                             # default d = 20 leaves the l1 = 20 field
    ("eps = 0.1\n", "1.0"),                # coarser than the field's h = 0.25
    ("eps = 0.1\n", "-0.1"),
    ("eps = 0.1\n", "1e-6"),              # a block of 5.5/1e-6 points per axis
], ids=["default-d", "coarse-ds", "negative-ds", "tiny-ds"])
def test_cli_reconstruct_bad_block_exit_2(tmp_path, pair_ansatz_file, config, ds):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(config)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "reconstruct",
                 str(pair_ansatz_file), "--ds", ds]) == 2


@pytest.mark.parametrize("degenerate", [{"ntau": 2}, {"nspace": (12, 2)}], ids=["ntau", "nspace"])
def test_cli_reconstruct_degenerate_block_exit_2(tmp_path, pair_ansatz_file, monkeypatch,
                                                 degenerate, capsys):
    # the CLI's own blocks are never this small; a residual block without
    # an interior on some axis still reaches the user as a config error
    def residual(*args, **kw):
        return pde_residual(*args, **{**kw, **degenerate})

    monkeypatch.setattr(cli_io, "pde_residual", residual)
    cfg = tmp_path / "r.cfg"
    cfg.write_text("eps = 0.1\nregime = pair_wm\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "reconstruct",
                 str(pair_ansatz_file)]) == 2
    assert "at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pair", "reconstruct"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e308", "5e-324", "4"])
@pytest.mark.parametrize("key", ["h", "l", "eps", "kappa", "d_hat"])
def test_cli_any_config_value_exits_0_or_2(tmp_path, pair_ansatz_file, key, value, command,
                                          capsys):
    # main maps every value a command refuses to exit 2; none may escape it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    args = ["pair", "--ansatz-only"] if command == "pair" else [command, str(pair_ansatz_file)]
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out")] + args)
    assert code in (0, 2)
    if key == "h":
        # no listed spacing is usable, and each refusal names h, a subnormal one's too
        assert code == 2 and re.search(r"\bh\b", capsys.readouterr().err)


@pytest.mark.parametrize("ds", ["0.0625", "0.03125"], ids=["h/4", "h/8"])
def test_cli_reconstruct_refines_below_half_h(tmp_path, pair_ansatz_file, ds):
    # the block keeps its 11 h/2 width, so it reaches past the core disc
    # (radius 2h) that a 12-point block of spacing h/4 fell inside
    cfg = tmp_path / "r.cfg"
    cfg.write_text("eps = 0.1\nregime = pair_wm\n")
    out = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(out), "reconstruct",
                 str(pair_ansatz_file), "--ds", ds]) == 0
    assert f"ds: {ds}" in (out / "report.txt").read_text()


def test_cli_pair_full_solve(tmp_path):
    out = tmp_path / "solve"
    code = main(["--out", str(out), "pair", "--eps", "0.1"])
    assert code == 0
    assert (out / "solution.vsf").exists()
    rep = (out / "report.txt").read_text()
    assert "c_mult" in rep and "newton_iters" in rep and "corrector_norm_star" in rep


def test_cli_residual_above_newton_tol_exit_3(tmp_path, monkeypatch):
    # two Newton steps end near 2e-10, above newton_tol: a solver failure
    monkeypatch.setattr(solver, "NEWTON_MAX", 2)
    cfg = tmp_path / "two_steps.cfg"
    cfg.write_text("h = 0.5\nnewton_tol = 1e-11\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "pair", "--eps", "0.1"]) == 3


def test_cli_solver_failure_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("eps = 0.1\nnewton_tol = 1e-30\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x"), "pair"])
    assert code == 3


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cli_non_finite_preconditioner_exit_3(tmp_path, monkeypatch, capsys, value):
    # a preconditioner that returns a non-finite vector fails GMRES's first
    # apply as a stagnated step, a solver failure, not a refused value
    real = solver._preconditioner

    def poisoned(*args, **kwargs):
        M, fill, n1 = real(*args, **kwargs)
        return (lambda v, J: np.full_like(M(v, J), value)), fill, n1

    monkeypatch.setattr(solver, "_preconditioner", poisoned)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("h = 0.5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "pair", "--eps", "0.1"]) == 3
    assert "GMRES stagnated at Newton step 1" in capsys.readouterr().err
