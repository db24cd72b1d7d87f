import json

import pytest

from skelpoly.cli import format_comp, main, parse_parts


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_parts():
    assert parse_parts("3,2") == (3, 2)
    assert parse_parts("32") == (3, 2)
    assert parse_parts("10,3,4,11") == (10, 3, 4, 11)
    assert parse_parts("7") == (7,)
    assert parse_parts("") == ()


def test_format_comp():
    assert format_comp((3, 2)) == "32"
    assert format_comp((10, 3)) == "10,3"


def test_skeleton_command(capsys):
    code, out = run_cli(capsys, "skeleton", "3,2")
    assert code == 0
    assert out.strip() == "x^32 + x^23 + x^221 + x^131 + x^122"


def test_skeleton_eval_ones(capsys):
    code, out = run_cli(capsys, "skeleton", "2,1", "--eval-ones")
    assert code == 0
    assert out.strip() == "2"


def test_skeleton_deep(capsys):
    code, out = run_cli(capsys, "skeleton", "1,1,1", "--deep")
    assert code == 0
    assert out.strip() == "q^3·x^111"


def test_skeleton_i(capsys):
    code, out = run_cli(capsys, "skeleton", "3,2", "--i", "3")
    assert code == 0
    assert out.strip() == "x^221 + x^131 + x^122"


@pytest.mark.parametrize("length", ["0", "-1"])
def test_skeleton_i_rejects_nonpositive_length(capsys, length):
    with pytest.raises(SystemExit) as exc:
        main(["skeleton", "3,2", "--i", length])
    assert str(exc.value.code).startswith("error: --i must be at least 1")


def test_skeleton_i_above_maximal_length_is_zero(capsys):
    code, out = run_cli(capsys, "skeleton", "3,2", "--i", "4")
    assert code == 0
    assert out.strip() == "0"


def test_skeleton_json(capsys):
    code, out = run_cli(capsys, "skeleton", "2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["arity"] == 3
    assert payload["terms"][0] == {
        "exponents": [2, 2, 0],
        "p": 0,
        "q": 0,
        "coefficient": 1,
    }


def test_skeleton_latex(capsys):
    code, out = run_cli(capsys, "skeleton", "2,1", "--format", "latex")
    assert code == 0
    assert out.strip() == "x_{1}^{2}x_{2}+x_{1}x_{2}^{2}"


def test_skeleton_csv(capsys):
    code, out = run_cli(capsys, "skeleton", "2,2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "lambda,alpha,f_lambda_alpha",
        "22,22,1",
        "22,121,1",
    ]


def test_skeleton_table(capsys):
    code, out = run_cli(capsys, "skeleton", "--table", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # shapes of size 0..3
    assert "21: x^21 + x^12   [11/2, 12/2]" in lines


def test_skeleton_table_latex(capsys):
    code, out = run_cli(capsys, "skeleton", "--table", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "$11$ & $1/2$ & $x_{1}x_{2}$" in out


def test_skeleton_rejects_bad_partition(capsys):
    with pytest.raises(SystemExit):
        main(["skeleton", "1,2"])


def test_tableaux_qy(capsys):
    code, out = run_cli(capsys, "tableaux", "3,2", "--qy")
    assert code == 0
    assert out.strip().endswith("total: 5")


def test_tableaux_syt_single(capsys):
    code, out = run_cli(capsys, "tableaux", "4", "--syt")
    assert code == 0
    assert "total: 1" in out


def test_tableaux_descent_filter(capsys):
    code, out = run_cli(capsys, "tableaux", "3,3,2", "--syt", "--des", "1,2,2,2,1")
    assert code == 0
    assert "total: 3" in out


def test_tableaux_ssyt_bound(capsys):
    code, out = run_cli(capsys, "tableaux", "3,2", "--ssyt", "3")
    assert code == 0
    assert "total: 15" in out


def test_tableaux_weight(capsys):
    code, out = run_cli(capsys, "tableaux", "2,1", "--weight", "1,1,1")
    assert code == 0
    assert "total: 2" in out


def test_malformed_parts_exit(capsys):
    with pytest.raises(SystemExit):
        main(["skeleton", "1,x"])


def test_tableaux_json(capsys):
    code, out = run_cli(capsys, "tableaux", "2,2", "--qy", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["rows"] for entry in payload] == [
        [[1, 1], [2, 2]],
        [[1, 2], [2, 3]],
    ]
    assert payload[0]["descent_composition"] == [2, 2]


def test_rsk_command(capsys):
    code, out = run_cli(capsys, "rsk", "2143")
    assert code == 0
    assert "des P = 121" in out
    assert "des Q = 121" in out


def test_rsk_charge_example(capsys):
    code, out = run_cli(capsys, "rsk", "57841362")
    assert code == 0
    assert "charge=17" in out


def test_rsk_identity(capsys):
    code, out = run_cli(capsys, "rsk", "1234")
    assert code == 0
    assert "1 2 3 4" in out
    assert "des P = 4" in out


def test_rsk_word_mode(capsys):
    code, out = run_cli(capsys, "rsk", "1,1,2")
    assert code == 0
    assert "input (word)" in out
    assert "charge" not in out


def test_rsk_json(capsys):
    code, out = run_cli(capsys, "rsk", "3412", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["P"] == [[1, 2], [3, 4]]
    assert payload["Q"] == [[1, 2], [3, 4]]
    assert payload["stats"]["depth"] == 2


def test_crystal_dot(capsys):
    code, out = run_cli(capsys, "crystal", "3,2", "3", "--dot")
    assert code == 0
    assert out.count("subgraph cluster_") == 5
    assert out.count("[label=") >= 15 + 18


def test_crystal_small_dot(capsys):
    code, out = run_cli(capsys, "crystal", "2,1", "2", "--dot")
    assert code == 0
    assert out.count("v") >= 2
    assert out.count("->") == 1
    assert 'label="1"' in out


def test_crystal_single_vertex(capsys):
    code, out = run_cli(capsys, "crystal", "1,1", "2", "--dot")
    assert code == 0
    assert out.count("->") == 0


def test_crystal_text_and_json(capsys):
    code, out = run_cli(capsys, "crystal", "2,1", "3")
    assert code == 0
    assert "2 quasi-crystals" in out
    code, out = run_cli(capsys, "crystal", "2,1", "3", "--format", "json")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 8
    assert len(payload["classes"]) == 2


def test_crystal_bound_too_small(capsys):
    with pytest.raises(SystemExit):
        main(["crystal", "2,2", "1"])


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", "mahonian", "--max-n", "4")
    assert code == 0
    assert "PASS mahonian" in out
    assert out.strip().splitlines()[-1] == "4/4 checks passed"


def test_verify_json_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "s6-inversions", "--format", "json")
    code2, out2 = run_cli(capsys, "verify", "s6-inversions", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["results"][0]["name"] == "s6-inversions"
    assert "elapsed" not in payload["results"][0]


def test_verify_report_support(capsys):
    code, out = run_cli(
        capsys, "verify", "skeleton-rs", "--max-n", "4", "--report-support"
    )
    assert code == 0
    assert '"support_size": 22' in out


def test_verify_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("SKELETON_MAX_N", "3")
    code, out = run_cli(capsys, "verify", "charge-depth")
    assert code == 0
    assert out.strip().splitlines()[-1] == "3/3 checks passed"


def test_verify_unknown_check(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_verify_rejects_non_integer_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("SKELETON_MAX_N", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "mahonian"])
    assert str(exc.value.code).startswith("error: SKELETON_MAX_N")


def test_rsk_rejects_zero_letter(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rsk", "0"])
    assert str(exc.value.code).startswith("error: letters must be positive")


def test_verify_rejects_nonpositive_bound(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "mahonian", "--max-n", "0"])
