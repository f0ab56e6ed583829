import numpy as np
import pytest

from vortexflow.cli_io import (ConfigError, FieldFormatError, RunConfig,
                               load_field, main, save_field)
from vortexflow.fields import ComplexField, GridSpec, ScalarField, Symmetry


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


def test_cli_invalid_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("eps = 0.9\n")
    code = main(["--config", str(bad), "--out", str(tmp_path), "pair", "--ansatz-only"])
    assert code == 2


def test_cli_missing_field_exit_4(tmp_path):
    code = main(["--out", str(tmp_path), "verify", str(tmp_path / "nope.vsf")])
    assert code == 4


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
