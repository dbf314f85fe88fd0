"""Command-line interface: output shapes, exit codes, determinism."""

import json
import math

import pytest

from holodom.catalog import family_from_json, instantiate_family
from holodom.cli import main
from holodom.oracle import IntegrationSpec, integrate

S_INV = '{"num":[[1,0]],"den":[[0,0],[1,0]]}'  # s = 1/z


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gap_worked_example(capsys):
    code, out, _ = run(capsys, "gap", "--s", S_INV)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["g1"] == []
    assert doc["report"]["passed"] is True
    assert doc["report"]["jet_residual"] < 1e-8


def test_gap_two_pole_g1_coefficients(capsys):
    code, out, _ = run(capsys, "gap", "--s",
                       '{"num":[[0,0],[1,0]],"den":[[-1,0],[0,0],[1,0]]}')
    assert code == 0
    g1 = json.loads(out)["certificate"]["g1"]
    assert g1[0][1] == pytest.approx(math.pi / 2, abs=1e-10)
    assert g1[1][1] == pytest.approx(-math.pi / 2, abs=1e-10)


def test_verify_all_seed7(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 10


def test_covering_identity_pass(capsys):
    code, out, _ = run(capsys, "covering", "--r", "2", "--s", "3",
                       "--a", "1,0", "--identity")
    assert code == 0
    assert json.loads(out) == "pass"


def test_map_preimage_round_trip(capsys):
    code, out, _ = run(capsys, "map", "--s", S_INV, "--eval", "1,0", "0.5,0.2")
    assert code == 0
    w = json.loads(out)["w"]
    code, out, _ = run(capsys, "preimage", "--s", S_INV, "--target", "1,0",
                       "%r,%r" % (w[0], w[1]))
    assert code == 0
    t = json.loads(out)["t"]
    assert complex(t[0], t[1]) == pytest.approx(0.5 + 0.2j, rel=1e-8)


def test_classify_reports_period(capsys):
    code, out, _ = run(capsys, "classify", "--s", S_INV, "--z", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["fiber"] == "C*"
    assert doc["period"][1] == pytest.approx(2 * math.pi)
    code, out, _ = run(capsys, "classify", "--s", S_INV, "--z", "0,0")
    assert json.loads(out) == {"fiber": "C", "z": [0.0, 0.0]}
    assert code == 0


def test_trajectory_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "trajectory", "--s", S_INV, "--z", "1,0",
                       "--w", "2,0", "--tmax", "1,0", "--steps", "4", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t_re,t_im,z_re,z_im,w_re,w_im"
    assert len(lines) == 6
    last = [float(v) for v in lines[-1].split(",")]
    # w(1) = s(1) + (2 - s(1)) e = 1 + e
    assert last[4] == pytest.approx(1.0 + math.e)


def test_trajectory_out_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code, out, _ = run(capsys, "trajectory", "--s", S_INV, "--z", "1,0",
                       "--w", "2,0", "--tmax", "1,0", "--steps", "3",
                       "--out", str(target))
    assert code == 0
    assert json.loads(out)["rows"] == 4
    text = target.read_text().strip().split("\n")
    assert text[0] == "t_re,t_im,z_re,z_im,w_re,w_im"
    assert len(text) == 5


def test_flow_oracle_endpoint(capsys):
    code, out, _ = run(capsys, "flow", "--field",
                       '{"vertical": {"s": %s}}' % S_INV,
                       "--start", "1,0", "2,0", "--path", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["endpoint"]["w"][0] == pytest.approx(1.0 + math.e, rel=1e-7)
    assert doc["steps"] > 0


def test_flow_blow_up_exit_2(capsys):
    code, out, err = run(capsys, "flow", "--field",
                         '{"vertical": {"s": %s}}' % S_INV,
                         "--start", "1,0", "2,0", "--path", "1000,0")
    assert code == 2
    assert out == ""
    assert "tau_reached" in json.loads(err)


def test_double_section_eval_and_verify(capsys):
    args = ["double-section", "--a", "[[1,0]]", "--b", "[[0,0]]",
            "--c", "[[0,0],[-1,0]]"]
    code, out, _ = run(capsys, *args, "--verify")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, *args, "--eval", "2,0", "0.3,0")
    assert code == 0
    assert json.loads(out)["w"][0] == pytest.approx(-3.5309737488, rel=1e-6)


def test_tangent_tangency_and_flow(capsys):
    fam = '{"kind":"iii","a":[1,0],"k":2,"tail":[[0,0],[0,0],[1,0]]}'
    code, out, _ = run(capsys, "tangent", "--family", fam,
                       "--check", "tangency", "--curve", '{"pole_graph": 2}')
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "tangent", "--family",
                       '{"kind":"i","a":[1,0],"b":[0,0],"multiplier":[[1,0]]}',
                       "--check", "flow", "--time", "0.5,0",
                       "--point", "1,0", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["z"][0] == pytest.approx(math.exp(0.5))
    assert doc["w"][0] == pytest.approx(math.exp(0.5))


def test_tangent_flow_at_a_small_rate_matches_the_oracle(capsys):
    fam = ('{"kind":"i","a":[1e-4,0],"b":[1,0],'
           '"multiplier":[[0.3,0],[0.5,0],[0.2,0],[0.1,0]]}')
    code, out, _ = run(capsys, "tangent", "--family", fam, "--check", "flow",
                       "--time", "0.9,0.3", "--point", "0.4,0.1", "1,0.5")
    assert code == 0
    w = complex(*json.loads(out)["w"])
    res = integrate(instantiate_family(family_from_json(json.loads(fam))),
                    (0.4 + 0.1j, 1.0 + 0.5j),
                    IntegrationSpec(path=(0.9 + 0.3j,), rtol=1e-12, atol=1e-14))
    assert abs(w - res.endpoint[1]) < 1e-8


def test_tangent_eigenratio(capsys):
    fam = '{"kind":"i","a":[2,0],"b":[0,0],"multiplier":[[3,0],[0.5,0]]}'
    code, out, _ = run(capsys, "tangent", "--family", fam,
                       "--check", "eigenratio", "--at", "0,0", "0,0")
    assert code == 0
    assert json.loads(out)["ratio"][0] == pytest.approx(2.0 / 3.0)


def test_covering_preimage_and_member(capsys):
    code, out, _ = run(capsys, "covering", "--r", "2", "--s", "3",
                       "--a", "1,0", "--preimage", "1,0", "2,0")
    assert code == 0
    doc = json.loads(out)
    u, v = complex(*doc["u"]), complex(*doc["v"])
    # gamma(u, v) must return (1, 2)
    assert v ** 1 * u ** 2 == pytest.approx(1.0)
    assert v ** 2 * u ** 3 == pytest.approx(2.0)
    code, out, _ = run(capsys, "covering", "--r", "2", "--s", "3",
                       "--a", "1,0", "--member", "1,0", "1,0")
    assert code == 0
    assert json.loads(out) == {"member": False}


def test_validation_errors_exit_1(capsys):
    code, _, err = run(capsys, "gap", "--s", '{"num": [[1,0]]')
    assert code == 1
    assert "error" in json.loads(err)
    code, _, err = run(capsys, "covering", "--r", "2", "--s", "4",
                       "--a", "1,0", "--identity")
    assert code == 1
    code, _, _ = run(capsys, "verify", "--criterion", "11")
    assert code == 1


def test_usage_errors_exit_1(capsys):
    assert main(["gap", "--nope"]) == 1
    assert main([]) == 1
    assert main(["classify", "--s", S_INV, "--z", "abc"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_output_is_byte_deterministic(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--criterion", "1", "--seed", "0")
        outs.add(out)
    assert len(outs) == 1


def test_holodom_seed_env_override(capsys, monkeypatch):
    _, baseline, _ = run(capsys, "gap", "--s", S_INV, "--seed", "3")
    monkeypatch.setenv("HOLODOM_SEED", "3")
    _, overridden, _ = run(capsys, "gap", "--s", S_INV, "--seed", "99")
    assert overridden == baseline
    monkeypatch.setenv("HOLODOM_SEED", "not-a-number")
    code, _, err = run(capsys, "gap", "--s", S_INV)
    assert code == 1
    assert "HOLODOM_SEED" in json.loads(err)["error"]


def test_problem_file_sections(tmp_path, capsys):
    doc = {"s": {"num": [[1, 0]], "den": [[0, 0], [1, 0]]},
           "u": [[0.1, 0]],
           "samples": {"count": 100, "seed": 5, "region": {"radius": 3.0}}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--s", str(path), "--u", str(path),
                       "--z", "1,0")
    assert code == 0
    # u = 0.1 scales c, hence the period
    want = 2 * math.pi / math.exp(0.1)
    assert abs(complex(*json.loads(out)["period"])) == pytest.approx(want)


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "gap", "--s", "/nonexistent/file.json")
    assert code == 1
    assert "cannot read" in json.loads(err)["error"]
