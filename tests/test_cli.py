"""CLI exit codes, report files and reproducibility."""

import hashlib
import json
from pathlib import Path

import pytest

from freewalk import cli
from freewalk.cli import main
from freewalk.decomposition import InternalInvariantError


def write_config(path: Path, **overrides) -> str:
    cfg = {
        "group": {"rank": 2, "weights": ["1", "1"]},
        "params": {"alpha": "critical", "epsilon": "critical",
                   "arithmetic": "exact", "tau": 1e-6},
        "decompose": {"target": "ones"},
        "verify": {"mu": "sphere:1"},
        "audit": {"max_len": 3, "Ds": [0, 1]},
        "moments": {"rounds": 2},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    p = path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_decompose_ok(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "decomposition.json").read_text())
    assert doc["coefficients"] == [["a", "1/4"], ["A", "1/4"],
                                   ["b", "1/4"], ["B", "1/4"]]
    assert "moment" in doc and "entropy" in doc
    csv = (out / "decomposition.csv").read_text()
    assert csv.splitlines()[0] == "norm,mu"
    assert (out / "meta.json").exists()


def test_decompose_float_tau_zero_rejected(tmp_path):
    cfg = write_config(tmp_path, params={"alpha": "critical", "epsilon": "critical",
                                         "arithmetic": "float", "tau": 0.0})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_decompose_exact_round_capped(tmp_path):
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "exact",
        "tau": 0.0, "max_rounds": 5, "rescale": "proof"})
    out = tmp_path / "out"
    rc = main(["decompose", "--config", cfg, "--out", str(out)])
    doc = json.loads((out / "decomposition.json").read_text())
    for _, coeff in doc["coefficients"]:
        assert "/" in coeff   # exact mode prints fractions
    assert rc == 1            # tau = 0 not reached in 5 proof-scaled rounds


def test_verify_ok_and_perturbed(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "stationarity.json").read_text())
    assert rep["exact"] is True
    perturbed = {
        "atoms": [["a", "26/100"], ["A", "1/4"], ["b", "1/4"], ["B", "1/4"]]}
    cfg2 = write_config(tmp_path, verify={"mu": perturbed})
    assert main(["verify", "--config", cfg2, "--out", str(out)]) == 1


def test_verify_depth_zero_rejected(tmp_path, capsys):
    # depth 0 is a usage error, not a request for the default depth
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--depth", "0"]) == 2
    cfg0 = write_config(tmp_path, verify={"mu": "sphere:1", "depth": 0})
    assert main(["verify", "--config", cfg0, "--out", str(out)]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    assert not (out / "stationarity.json").exists()


def test_verify_missing_file(tmp_path):
    cfg = write_config(tmp_path, verify={"mu": str(tmp_path / "nope.json")})
    assert main(["verify", "--config", cfg]) == 2


def test_audit_ok(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "audit.json").read_text())
    assert doc["beta"] == "4/3"
    assert doc["D0"] == "0/1"
    assert doc["spikes_failed"] == 0


def test_audit_adversarial_injection(tmp_path):
    spike = {
        "function": {"cells": [["A", "0/1"], ["b", "0/1"], ["B", "0/1"],
                               ["aa", "0/1"], ["aB", "0/1"],
                               ["abA", "0/1"], ["abb", "0/1"],
                               ["aba", "1/1"]]},
        "r_exp": "2", "center": "aba", "C": "100", "gamma": "ABA", "D": "0"}
    inject = tmp_path / "spike.json"
    inject.write_text(json.dumps(spike))
    cfg = write_config(tmp_path, audit={"max_len": 2, "Ds": [0],
                                        "inject": str(inject)})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 1
    doc = json.loads((out / "audit.json").read_text())
    assert doc["injected_failure"] is not None
    assert doc["injected_failure"]["witnesses"]


def test_audit_empty_sweep(tmp_path):
    cfg = write_config(tmp_path, audit={"max_len": 0, "Ds": []})
    assert main(["audit", "--config", cfg]) == 2


def test_audit_rejects_margins_between_0_and_1(tmp_path, capsys):
    for ds, shown in (([0, 0.5], "1/2"), ([1, "1/3"], "1/3")):
        cfg = write_config(tmp_path, audit={"max_len": 1, "Ds": ds})
        assert main(["audit", "--config", cfg]) == 2
        assert f"D = {shown}" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "data" / "audit"


@pytest.mark.parametrize("name", sorted(p.name[:-len(".config.json")]
                                        for p in GOLDEN.glob("*.config.json")))
def test_audit_witnesses_match_golden(tmp_path, name):
    out = tmp_path / "out"
    assert main(["audit", "--config", str(GOLDEN / f"{name}.config.json"),
                 "--out", str(out), "--witnesses"]) == 0
    assert (out / "audit.json").read_bytes() == \
        (GOLDEN / f"{name}.audit.json").read_bytes()


INJECT = GOLDEN / "inject"
INJECT_PARAMS = {
    "exact": {"arithmetic": "exact"},
    "float": {"alpha": 1.0986122886681098, "epsilon": 0.7,
              "arithmetic": "float"},
}


@pytest.mark.parametrize("mode", sorted(INJECT_PARAMS))
@pytest.mark.parametrize("spike", sorted(p.name[:-len(".spike.json")]
                                         for p in INJECT.glob("*.spike.json")))
def test_audit_injected_failure_matches_golden(tmp_path, spike, mode):
    # the inject path is resolved from the working directory: make it absolute
    cfg = write_config(tmp_path, params=INJECT_PARAMS[mode], audit={
        "max_len": 1, "Ds": [0], "inject": str(INJECT / f"{spike}.spike.json")})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out), "--witnesses"]) == 1
    assert (out / "audit.json").read_bytes() == \
        (INJECT / f"{spike}.{mode}.audit.json").read_bytes()


def test_moments_ok(tmp_path):
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "float",
        "tau": 1e-9, "D": 1, "rescale": "proof", "s": "3/2"})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert "envelope" in doc and doc["envelope"]["checks"]["envelope"] is True


def test_missing_config(tmp_path):
    assert main(["decompose", "--config", str(tmp_path / "none.json")]) == 2


def test_bad_group_config(tmp_path):
    cfg = write_config(tmp_path, group={"rank": 1})
    assert main(["decompose", "--config", cfg]) == 2


def test_thread_determinism(tmp_path):
    """Two runs of the same command write byte-identical reports."""
    cfg = write_config(tmp_path)
    for command, report in (("decompose", "decomposition.json"),
                            ("audit", "audit.json")):
        first, second = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert main([command, "--config", cfg, "--out", str(first)]) == 0
        assert main([command, "--config", cfg, "--out", str(second)]) == 0
        assert (first / report).read_bytes() == (second / report).read_bytes()


def test_threads_option_removed(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg, "--threads", "2"]) == 2


def test_moments_default_rescale(tmp_path):
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "exact",
        "tau": 1e-6, "D": 1}, moments={"rounds": 1, "target": "ones"})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert all(doc["envelope"]["checks"].values())


def test_moments_without_margin(tmp_path):
    # no "D": moments runs with D = 1 and the proof rescale, other knobs kept
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "moments.json").read_bytes()
    assert all(json.loads(report)["envelope"]["checks"].values())
    assert hashlib.sha256(report).hexdigest() == \
        "677fad57a6a2c33b9dca6841dabe5153b5c5355cee60ac83ee87913b55b7a164"


def test_library_value_error_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, group={"rank": 2, "weights": ["1", "2"]})
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInvariantError("residual did not decrease")

    monkeypatch.setattr(cli, "basis_decompose", broken)
    cfg = write_config(tmp_path)
    assert main(["decompose", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("internal error: InternalInvariantError")
