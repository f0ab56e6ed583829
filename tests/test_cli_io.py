import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexflow import ansatz
from vortexflow.cli_io import (ConfigError, FieldFormatError, RunConfig,
                               load_field, main, save_field)
from vortexflow.fields import ComplexField, GridSpec, ScalarField, Symmetry

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

    s = ScalarField(f.spec, np.ascontiguousarray(f.data.real), "even")
    save_field(s, path)
    t = load_field(path)
    assert isinstance(t, ScalarField)
    assert t.data.tobytes() == s.data.tobytes()


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
    typed.write_text("newton_max = 3\n")
    newton_max = RunConfig.from_file(typed).newton_max
    assert newton_max == 3 and type(newton_max) is int

    fractional = tmp_path / "fractional.cfg"
    fractional.write_text("points = 2.5\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(fractional)


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
    else:
        struct.pack_into("<d", blob, _F64_AT[2], n1 * h1 + 1.0)
    return bytes(blob)


@pytest.mark.parametrize("case", ["spacing", "nan", "extent"])
def test_malformed_field_exit_4(tmp_path, rng, case):
    path = tmp_path / "f.vsf"
    save_field(random_complex_field(rng), path)
    path.write_bytes(_malformed(path.read_bytes(), case))
    with pytest.raises(FieldFormatError):
        load_field(path)
    assert main(["--out", str(tmp_path / "out"), "verify", str(path)]) == 4


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
    assert isinstance(f, (ComplexField, ScalarField))


@pytest.mark.parametrize("line, command", [
    ("h = 0.7", ["pair", "--ansatz-only"]),
    ("l = 10.1", ["pair", "--ansatz-only"]),
    ("h = 0.7", ["sweep", "--eps-list", "0.1"]),
    ("h = 0.7", ["reduce"]),
    ("points = 1", ["reduce"]),
    ("ell_max = 5", ["profile"]),
    ("step = 0.5", ["profile"]),
    ("tol = 0", ["profile"]),
])
def test_cli_out_of_range_config_exit_2(tmp_path, line, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + command) == 2


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

    out2 = tmp_path / "verify"
    code = main(["--out", str(out2), "verify", str(out / "ansatz.vsf")])
    assert code == 0
    rep2 = (out2 / "report.txt").read_text()
    assert "charge" in rep2


def test_cli_reports_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "pair", "--ansatz-only", "--eps", "0.1"]) == 0
        outs.append((out / "report.txt").read_bytes())
    assert outs[0] == outs[1]


def test_cli_ring_ansatz(tmp_path):
    out = tmp_path / "ring"
    code = main(["--out", str(out), "ring", "--ansatz-only", "--eps", "0.05",
                 "--dhat", "0.3"])
    assert code == 0
    rep = (out / "report.txt").read_text()
    assert "ring_wm" in rep and "error_norm_star2" in rep


def test_cli_ring_solve_factors_laplacian_once(tmp_path, monkeypatch):
    from vortexflow import ansatz

    calls = []

    def counted(*args, _splu=ansatz.splu, **kwargs):
        calls.append(kwargs)
        return _splu(*args, **kwargs)

    monkeypatch.setattr(ansatz, "splu", counted)
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["--out", str(out), "ring", "--eps", "0.05", "--dhat", "0.3"]) == 0
        reports.append((out / "report.txt").read_bytes())
    assert len(calls) == 2
    assert reports[0] == reports[1] and b"c_mult" in reports[0]


def test_cli_ring_sweep_solve_factors_laplacian_once_per_eps(tmp_path, monkeypatch):
    calls = []

    def counted(*args, _splu=ansatz.splu, **kwargs):
        calls.append(kwargs)
        return _splu(*args, **kwargs)

    monkeypatch.setattr(ansatz, "splu", counted)
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("regime = ring_sch\nd_hat = 0.3\nh = 0.5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "sweep", "--eps-list", "0.05", "--solve"]) == 0
    assert len(calls) == 1


def test_cli_sweep_solves_on_its_error_norm_grid(tmp_path, monkeypatch):
    grids = set()

    def recorded(params, spec, profile, _build=ansatz.build_pair):
        grids.add((spec.n1, spec.n2))
        return _build(params, spec, profile)

    monkeypatch.setattr(ansatz, "build_pair", recorded)
    cfg = tmp_path / "side.cfg"
    cfg.write_text("eps = 0.1\nh = 0.5\nl = 30\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "sweep", "--eps-list", "0.1", "--solve"]) == 0
    assert grids == {(60, 60)}
    assert "c_mult" in (out / "report.txt").read_text()


@pytest.mark.parametrize("command", [
    ["pair"], ["sweep", "--eps-list", "0.1", "--solve"], ["reduce"]])
def test_cli_newton_max_reaches_every_solve(tmp_path, command):
    cfg = tmp_path / "one_step.cfg"
    cfg.write_text("eps = 0.1\nh = 0.5\npoints = 2\nnewton_max = 1\nnewton_tol = 1e-30\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + command) == 3


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = main(["--out", str(out), "sweep", "--eps-list", "0.1"])
    assert code == 0
    rep = (out / "report.txt").read_text()
    assert "[sweep_0]" in rep and "error_norm_star2" in rep


def test_cli_reconstruct(tmp_path):
    src = tmp_path / "src"
    assert main(["--out", str(src), "pair", "--ansatz-only", "--eps", "0.1"]) == 0
    cfg = tmp_path / "r.cfg"
    cfg.write_text("eps = 0.1\nregime = pair_wm\n")
    out = tmp_path / "rec"
    code = main(["--config", str(cfg), "--out", str(out),
                 "reconstruct", str(src / "ansatz.vsf")])
    assert code == 0
    assert (out / "samples.csv").exists()
    rep = (out / "report.txt").read_text()
    assert "residual_l2" in rep


def test_cli_pair_full_solve(tmp_path):
    out = tmp_path / "solve"
    code = main(["--out", str(out), "pair", "--eps", "0.1"])
    assert code == 0
    assert (out / "solution.vsf").exists()
    rep = (out / "report.txt").read_text()
    assert "c_mult" in rep and "newton_iters" in rep and "corrector_norm_star" in rep


def test_cli_solver_failure_exit_3(tmp_path):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("eps = 0.1\nnewton_max = 1\nnewton_tol = 1e-30\nkrylov_tol = 1e-1\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x"), "pair"])
    assert code == 3
