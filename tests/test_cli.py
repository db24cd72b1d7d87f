import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import islice, product
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import skelpoly
from skelpoly import (
    build_crystal,
    cli,
    compositions,
    crystal,
    graph_json,
    inner_crystal,
    partitions,
    quasi_yamanouchi_tableaux,
    verify,
    weight,
)
from skelpoly.cli import format_comp, main, parse_parts
from skelpoly.rsk import rsk_tally


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
    with pytest.raises(ValueError, match="cannot parse parts from '1,x'"):
        parse_parts("1,x")


def test_format_comp():
    assert format_comp((3, 2)) == "32"
    assert format_comp((10, 3)) == "10,3"


def test_format_comp_reads_back():
    # a lone part above nine keeps a trailing comma, so (11,) and (1, 1) differ
    assert format_comp((11,)) == "11,"
    assert parse_parts("11,") == (11,)
    strong = [alpha for n in range(13) for alpha in compositions(n)]
    weak = [alpha for k in range(4) for alpha in product(range(13), repeat=k)]
    for alpha in strong + weak:
        assert parse_parts(format_comp(alpha)) == alpha


def test_lone_part_of_ten_or_more(capsys):
    code, out = run_cli(capsys, "skeleton", "10,")
    assert (code, out) == (0, "x1^10\n")
    code, out = run_cli(capsys, "skeleton", "--table", "11")
    labels = [line.split(": ", 1)[0] for line in out.splitlines()]
    assert len(set(labels)) == len(labels)
    assert "11,: x1^11   [11111111111]" in out.splitlines()


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


def test_skeleton_eval_ones_above_maximal_length_builds_no_point(capsys):
    # the zero polynomial in 10^7 variables is evaluated without a tuple of 10^7 ones
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "skeleton", "3,2", "--i", "10000000", "--eval-ones")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "0\n")
    assert peak < 4_000_000


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


def test_skeleton_csv_quotes_fields_with_commas(capsys):
    code, out = run_cli(capsys, "skeleton", "10,1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:3] == ['"10,1","10,1",1', '"10,1",92,1']
    code, out = run_cli(capsys, "skeleton", "--table", "11", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["lambda", "alpha", "f_lambda_alpha"]
    assert all(len(row) == 3 for row in rows), [row for row in rows if len(row) != 3]
    read = {}
    for shape, alpha, coeff in rows[1:]:
        read.setdefault(parse_parts(shape), {})[parse_parts(alpha)] = int(coeff)
    shapes = [shape for n in range(1, 12) for shape in partitions(n)]
    assert list(read) == shapes
    for shape in shapes:  # f_{lambda, alpha} counts the QY tableaux of weight alpha
        counts = {}
        for t in quasi_yamanouchi_tableaux(shape):
            counts[weight(t)] = counts.get(weight(t), 0) + 1
        assert read[shape] == counts, shape


def test_skeleton_table(capsys):
    code, out = run_cli(capsys, "skeleton", "--table", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # shapes of size 0..3
    assert "21: x^21 + x^12   [11/2, 12/2]" in lines


def test_skeleton_table_fillings_read_back_at_n11(capsys):
    # the rows of a filling are written as compositions: with commas once an entry is 10
    code, out = run_cli(capsys, "skeleton", "--table", "11")
    assert code == 0
    shapes = [shape for n in range(1, 12) for shape in partitions(n)]
    lines = out.splitlines()[1:]  # after the empty shape, which has no filling
    assert len(lines) == len(shapes)
    fillings = {shape: line.split("[", 1)[1].rstrip("]").split(", ")
                for shape, line in zip(shapes, lines)}
    assert "16/27/38/49/5,10/6" in fillings[2, 2, 2, 2, 2, 1]
    assert fillings[(2,) + (1,) * 9][-1] == "1,10/2/3/4/5/6/7/8/9/10"

    def read_row(text, length):  # a row of one entry is that entry, whatever its digits
        if "," in text:
            return tuple(map(int, text.split(",")))
        return tuple(map(int, text)) if length > 1 else (int(text),)

    for shape, written in fillings.items():
        rows = [tuple(map(read_row, filling.split("/"), shape)) for filling in written]
        assert rows == [t.rows for t in quasi_yamanouchi_tableaux(shape)], shape


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


@pytest.mark.parametrize("flag", [["--eval-ones"], ["--i", "2"], ["--deep"], ["3,2"]])
def test_skeleton_table_rejects_single_shape_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["skeleton", "--table", "3", *flag])
    if flag == ["3,2"]:  # a shape is refused too, not dropped
        assert exc.value.code == "error: give a shape or --table, not both"
    else:
        assert exc.value.code == f"error: {flag[0]} applies to one shape, not to --table"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "mode", [["--qy"], ["--ssyt", "3"], ["--weight", "2,2,1"], ["--qy", "--syt"]]
)
def test_tableaux_des_needs_syt(capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "3,2", *mode, "--des", "2,3"])
    assert exc.value.code == "error: --des applies only to --syt"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("des", ["0,3", "2", "1,1,2", "3,0"])
def test_tableaux_des_must_be_a_composition_of_the_size(capsys, des):
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "2,1", "--syt", "--des", des])
    assert exc.value.code == f"error: --des {des} is not a composition of 3"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "first, second",
    [
        (["--qy"], ["--syt"]),
        (["--qy"], ["--ssyt", "3"]),
        (["--qy"], ["--weight", "2,2,1"]),
        (["--syt"], ["--ssyt", "3"]),
        (["--syt"], ["--weight", "2,2,1"]),
        (["--ssyt", "3"], ["--weight", "2,2,1"]),
    ],
)
def test_tableaux_modes_are_exclusive(capsys, first, second):
    for argv in ([*first, *second], [*second, *first]):
        with pytest.raises(SystemExit) as exc:
            main(["tableaux", "3,2", *argv])
        assert exc.value.code == (
            f"error: {first[0]} and {second[0]} cannot be combined; pick one mode"
        )
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["skeleton", "--table", "-1"], "--table", -1),
        (["skeleton", "--table", "-3", "--format", "json"], "--table", -3),
        (["tableaux", "3,2", "--ssyt", "-2"], "--ssyt", -2),
        (["tableaux", "3,2", "--ssyt", "-1", "--format", "json"], "--ssyt", -1),
    ],
)
def test_negative_sizes_are_refused(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"error: {flag} must be at least 0, got {value}"
    assert capsys.readouterr().out == ""


def test_zero_sizes_are_answered(capsys):
    code, out = run_cli(capsys, "skeleton", "--table", "0")
    assert (code, out) == (0, "(): 1   []\n")
    code, out = run_cli(capsys, "tableaux", "3,2", "--ssyt", "0")
    assert (code, out) == (0, "total: 0\n")


def test_tableaux_needs_a_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "3,2"])
    assert exc.value.code == "error: pick one of --qy, --syt, --ssyt N, --weight W"


def test_tableaux_ssyt_bound(capsys):
    code, out = run_cli(capsys, "tableaux", "3,2", "--ssyt", "3")
    assert code == 0
    assert "total: 15" in out


def test_tableaux_weight(capsys):
    code, out = run_cli(capsys, "tableaux", "2,1", "--weight", "1,1,1")
    assert code == 0
    assert "total: 2" in out


def test_tableaux_weight_of_a_row_longer_than_the_recursion_limit(capsys):
    # each row is grown one column per pass, so 995 cells in one row recurse nowhere
    code, out = run_cli(capsys, "tableaux", "995,", "--weight", "500,495")
    assert code == 0
    assert out.endswith("total: 1\n")


def test_syt_walk_longer_than_the_recursion_limit():
    # the SYT walk is a loop: in a child whose recursion limit is 150, a row and a
    # column of 200 cells each have one SYT, and the row's skeleton is x1^200
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    statement = (
        "import sys; sys.setrecursionlimit(150)\n"
        "from skelpoly.cli import main\n"
        "column = ','.join(['1'] * 200)\n"
        "main(['skeleton', '200,'])\n"
        "for argv in (['200,', '--syt'], ['200,', '--qy'], [column, '--syt'], [column, '--qy']):\n"
        "    main(['tableaux', *argv])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "x1^200"
    assert [line for line in lines if line.startswith("total: ")] == ["total: 1"] * 4


def test_a_column_taller_than_the_recursion_limit():
    # the skeleton, the SSYT fill and the partition lists grow in loops: in a child
    # whose recursion limit is 150, a column of 200 cells has one vertex, no edge and
    # one SSYT
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    statement = (
        "import io, json, sys; sys.setrecursionlimit(150)\n"
        "from contextlib import redirect_stdout\n"
        "from skelpoly.cli import main\n"
        "from skelpoly.compositions import partitions_within\n"
        "from skelpoly.crystal import edge_count\n"
        "column = ','.join(['1'] * 200)\n"
        "def run(*argv):\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        main(list(argv))\n"
        "    return out.getvalue()\n"
        "print(run('crystal', column, '200').splitlines()[0].split(': ')[1])\n"
        "print(run('crystal', column, '200', '--dot').count(' [label='))\n"
        "print(len(json.loads(run('crystal', column, '200', '--format', 'json'))['vertices']))\n"
        "print(run('tableaux', column, '--ssyt', '200').splitlines()[-1])\n"
        "print(run('tableaux', column, '--weight', column).splitlines()[-1])\n"
        "print(list(partitions_within(400, 400, 1)) == [(1,) * 400])\n"
        "print(edge_count((1,) * 200, 200))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.splitlines() == [
        "1 vertices, 0 edges, 1 quasi-crystals", "1", "1", "total: 1", "total: 1", "True", "0"
    ]


def test_tableaux_weight_refuses_runaway_listing(capsys, monkeypatch):
    def must_not_list(shape, weight_vec):
        raise AssertionError("SSYT listed for a refused weight")

    monkeypatch.setattr(cli, "semistandard_with_weight", must_not_list)
    # K_{54321, 1^15} = f^54321 = 292,864
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "5,4,3,2,1", "--weight", "1" * 15])
    assert exc.value.code == (
        f"error: tableaux 54321 --weight {'1' * 15} has 292864 SSYT,"
        f" above the limit of {cli.MAX_TABLEAUX}"
    )
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:  # a value left out changes nothing
        main(["tableaux", "5,4,3,2,1", "--weight", "1" * 7 + "0" + "1" * 8])
    assert exc.value.code.endswith("--weight 1111111011111111 has 292864 SSYT,"
                                   f" above the limit of {cli.MAX_TABLEAUX}")


def test_tableaux_negative_weight_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "2,1", "--weight", "2,-1,2"])
    assert exc.value.code == "error: weight parts must be nonnegative: (2, -1, 2)"
    assert capsys.readouterr().out == ""


def test_skeleton_csv_keeps_the_descent_length_selection(capsys):
    code, out = run_cli(capsys, "skeleton", "3,2", "--i", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["lambda,alpha,f_lambda_alpha", "32,32,1", "32,23,1"]
    code, ones = run_cli(capsys, "skeleton", "3,2", "--i", "2", "--eval-ones")
    assert int(ones) == len(out.splitlines()) - 1 == 2


def _hook_count(shape):
    """f^shape from hook lengths computed here, not through the library."""
    hooks = 1
    for r, length in enumerate(shape):
        for c in range(length):
            below = sum(1 for other in shape[r + 1 :] if other > c)
            hooks *= length - c + below
    return factorial(sum(shape)) // hooks


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tableaux", "7,6,5,4,3", "--syt"], "shape 76543 has 87027466240 SYT"),
        (["tableaux", "7,6,5,4,3", "--syt", "--des", "5,20"], "shape 76543 has 87027466240 SYT"),
        (["tableaux", "7,6,5,4,3", "--qy", "--format", "json"], "shape 76543 has 87027466240 SYT"),
        (["skeleton", "7,6,5,4,3"], "shape 76543 has 87027466240 SYT"),
        (["skeleton", "7,6,5,4,3", "--i", "9", "--format", "csv"], "shape 76543 has 87027466240 SYT"),
        (["skeleton", "7,6,5,4,3", "--deep", "--eval-ones"], "shape 76543 has 87027466240 SYT"),
        (["tableaux", "6,5,4", "--ssyt", "12"], "tableaux 654 --ssyt 12 has 1265384120 SSYT"),
        (["skeleton", "--table", "15", "--format", "csv"], "skeleton --table 15 has 13497600 SYT"),
    ],
)
def test_runaway_enumeration_refused_before_any_work(argv, message, monkeypatch):
    def must_not_enumerate(*args, **kwargs):
        raise AssertionError("enumeration reached for a refused size")

    for name in (
        "partitions",
        "quasi_yamanouchi_tableaux",
        "semistandard_tableaux",
        "skeleton_poly",
        "skeleton_poly_i",
        "deep_skeleton",
        "tableaux_from_table",
    ):
        monkeypatch.setattr(cli, name, must_not_enumerate)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"error: {message}, above the limit of {cli.MAX_TABLEAUX}"


_HUGE = "99999999999999999999,"


@pytest.mark.parametrize(
    "argv",
    [
        ["skeleton", _HUGE],
        ["tableaux", _HUGE, "--syt"],
        ["tableaux", _HUGE, "--ssyt", "1"],
        ["crystal", _HUGE, "1"],
    ],
)
def test_a_shape_of_more_cells_than_sys_maxsize_is_refused(argv):
    # factorial refuses more than sys.maxsize, and no tuple holds as many cells: the
    # shape is refused before any count, in a child whose CPU time is read back
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, time\n"
         "from skelpoly.cli import main\n"
         "try:\n"
         "    main(sys.argv[1:])\n"
         "finally:\n"
         "    print(time.process_time())\n", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert done.stderr == (
        f"error: shape {_HUGE} has {_HUGE[:-1]} cells, above the limit of {sys.maxsize}\n"
    )
    assert float(done.stdout) < 1


@pytest.mark.parametrize(
    "argv, subject, count",
    [
        (["skeleton", "--table", "3000"], "skeleton --table 3000", cli._table_count(3000)),
        (["tableaux", "3", "--ssyt", "9" * 3300], f"tableaux 3 --ssyt {'9' * 3300}",
         (10**3300 - 1) * 10**3300 * (10**3300 + 1) // 6),
        (["skeleton", ",".join(["70"] * 70), "--eval-ones"], "shape " + ",".join(["70"] * 70),
         _hook_count((70,) * 70)),
    ],
    ids=["table", "ssyt", "eval-ones"],
)
def test_a_count_too_long_for_str_is_refused_by_its_size(argv, subject, count):
    # str() refuses an int of more than sys.get_int_max_str_digits() digits (4,300
    # by default), so the refusal writes a power of ten just below the count
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert message.startswith(f"error: {subject} has more than 10^")
    power, rest = message.removeprefix(f"error: {subject} has more than 10^").split(" ", 1)
    assert 10 ** int(power) < count < 10 ** (int(power) + 2)
    assert rest == f"{'SSYT' if '--ssyt' in argv else 'SYT'}, above the limit of {cli.MAX_TABLEAUX}"


def test_enumeration_limits_match_hook_lengths():
    assert _hook_count((7, 6, 5, 4, 3)) == 87027466240
    table = sum(_hook_count(shape) for n in range(16) for shape in partitions(n))
    assert table == 13497600
    # the largest table under the limit still runs, the next one is refused
    assert cli._table_count(12) == 189080 <= cli.MAX_TABLEAUX < cli._table_count(13)
    for size in range(13):
        assert cli._table_count(size) == sum(
            _hook_count(shape) for n in range(size + 1) for shape in partitions(n)
        )


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


@pytest.mark.parametrize(
    "flags", [[], ["--inner"], ["--format", "json"], ["--inner", "--format", "json"], ["--dot"]]
)
def test_crystal_of_the_empty_shape(capsys, flags):
    code, out = run_cli(capsys, "crystal", "", "0", *flags)
    assert code == 0
    if flags[-1:] == ["json"]:
        payload = json.loads(out)
        assert payload["vertices"] == [[]]
        assert payload["classes"] == [{"representative": [], "descent": [], "members": [0]}]
    elif flags == ["--dot"]:
        assert out.count("subgraph cluster_") == 1 and "->" not in out
    else:
        assert out.splitlines() == [
            "shape  bound 0: 1 vertices, 0 edges, 1 quasi-crystals",
            "  des= size=1 representative=[]",
        ]


def _crystal_text(graph, inner_only):
    """The text export, rendered from the built graph."""
    classes = inner_crystal(graph) if inner_only else graph.classes
    head = (
        f"shape {format_comp(graph.shape)} bound {graph.bound}: {len(graph.rows)} vertices,"
        f" {len(graph.edges)} edges, {len(classes)} quasi-crystals\n"
    )
    return head + "".join(
        f"  des={format_comp(qc.descent)} size={len(qc.indices)}"
        f" representative={[list(row) for row in qc.representative.rows]}\n"
        for qc in classes
    )


@pytest.mark.parametrize("shape", [lam for n in range(9) for lam in partitions(n)])
def test_crystal_text_matches_the_built_graph(capsys, shape):
    # the text reads closed forms and the skeleton; the graph is its oracle
    for bound in range(len(shape), 9):
        graph = build_crystal(shape, bound)
        for inner_only in (False, True):
            flags = ["--inner"] if inner_only else []
            code, out = run_cli(capsys, "crystal", format_comp(shape), str(bound), *flags)
            assert code == 0
            assert out == _crystal_text(graph, inner_only)


@pytest.mark.parametrize(
    "argv, head",
    [
        (["", "0"], "shape  bound 0: 1 vertices, 0 edges, 1 quasi-crystals"),
        (["", "0", "--inner"], "shape  bound 0: 1 vertices, 0 edges, 1 quasi-crystals"),
        (["4,2,2", "7"], "shape 422 bound 7: 8820 vertices, 27510 edges, 56 quasi-crystals"),
        (
            ["4,2,2", "7", "--inner"],
            "shape 422 bound 7: 8820 vertices, 27510 edges, 6 quasi-crystals",
        ),
        (["4,4,2", "9"], "shape 442 bound 9: 365904 vertices, 1527008 edges, 252 quasi-crystals"),
    ],
)
def test_crystal_text_builds_no_graph(capsys, monkeypatch, argv, head):
    def must_not_build(shape, bound):
        raise AssertionError("build_crystal called for a text export")

    monkeypatch.setattr(cli, "build_crystal", must_not_build)
    code, out = run_cli(capsys, "crystal", *argv)
    assert code == 0
    assert out.splitlines()[0] == head


def test_crystal_bound_too_small(capsys):
    with pytest.raises(SystemExit):
        main(["crystal", "2,2", "1"])


def test_crystal_refuses_runaway_size_before_building(capsys, monkeypatch):
    def must_not_build(shape, bound):
        raise AssertionError("build_crystal called for a refused size")

    monkeypatch.setattr(cli, "build_crystal", must_not_build)
    with pytest.raises(SystemExit) as exc:
        main(["crystal", "3,2", "100"])
    assert exc.value.code == (
        f"error: crystal 32 100 has 424957500 vertices,"
        f" above the limit of {cli.MAX_CRYSTAL_VERTICES}"
    )


def test_crystal_json_refuses_runaway_weights_before_building(capsys, monkeypatch):
    # each vertex writes a weight as long as its largest entry; 10**6 vertices pass
    # the vertex limit, and their weights would fill terabytes
    def must_not_build(shape, bound):
        raise AssertionError("build_crystal called for refused weights")

    monkeypatch.setattr(cli, "build_crystal", must_not_build)
    for bound in (4472, 8000, 1_000_000):
        # the vertices of shape (1,) are the letters 1..bound: m + 1 writes m + 1 entries,
        # so the entries are counted as bound + (bound - 1) + ... until past the limit
        counted = 0
        for m in range(bound):
            counted += bound - m
            if counted > cli.MAX_JSON_WEIGHTS:
                break
        with pytest.raises(SystemExit) as exc:
            main(["crystal", "1", str(bound), "--format", "json", "--inner"])
        assert exc.value.code == (
            f"error: crystal 1 {bound} --format json has {counted} weight entries"
            f" or more, above the limit of {cli.MAX_JSON_WEIGHTS}"
        )


def test_crystal_json_counts_the_weight_entries_exactly(capsys, monkeypatch):
    # crystal 1 4471 writes 1 + 2 + ... + 4471 = 9,997,156 entries, under the limit though
    # its vertices x bound is twice it; so are crystal 2 300 and 1,1 300
    def built(shape, bound):
        raise RuntimeError("built")

    monkeypatch.setattr(cli, "build_crystal", built)
    for argv in (("1", "4471"), ("2", "300"), ("1,1", "300"), ("", "10000000")):
        with pytest.raises(RuntimeError, match="built"):
            main(["crystal", *argv, "--format", "json"])


def test_crystal_pool_sized_pair_runs(capsys):
    code, out = run_cli(capsys, "crystal", "4,2,2", "7")
    assert code == 0
    assert out.startswith("shape 422 bound 7: 8820 vertices,")


# Runs one statement, then writes the peak resident set of its own process, VmHWM in kB.
# Not `ru_maxrss`: Linux folds the high-water mark of the memory a process had before
# exec into it, and a child spawned from this test process starts out with all of it.
_PEAK_SCRIPT = (
    "import os, sys; from skelpoly.cli import main; from skelpoly.crystal import build_crystal;"
    " {}; sys.stdout.flush();"
    " peak = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')];"
    " os.write(2, peak[0].split()[1].encode())"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_crystal_exports_peak_at_the_build():
    # DOT and JSON stream from the graph's rows and flat edge array, so each
    # peaks within 3 MB of a child that only builds the graph, and the build
    # peaks within 4 MB of the text, which builds no graph; each runs in a
    # fresh child
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    peaks = {}
    for statement in (
        "main(['crystal', '4,2,2', '7'])",
        "build_crystal((4, 2, 2), 7)",
        "main(['crystal', '4,2,2', '7', '--dot'])",
        "main(['crystal', '4,2,2', '7', '--format', 'json'])",
    ):
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_SCRIPT.format(statement)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        peaks[statement] = int(done.stderr)
    text = peaks.pop("main(['crystal', '4,2,2', '7'])")
    build = peaks.pop("build_crystal((4, 2, 2), 7)")
    assert build - text < 4 * 1024, (build, text)
    for statement, peak in peaks.items():
        assert peak - build < 3 * 1024, (statement, peak, build)


_BENCHMARK_OUTPUT = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text()
)
_EXPECTED = _BENCHMARK_OUTPUT["digests"]


_CRYSTAL_OPS = [
    f"crystal {pair}{flags}"
    for pair in ("5,3 6", "5,1 8", "3,2,1,1 8", "4,2,2 7")
    for flags in ("", " --dot", " --format json", " --inner")
]
_S8_CHECKS = ["mahonian", "charge-depth", "bifactorial"]


@pytest.mark.parametrize("key", _CRYSTAL_OPS)
def test_crystal_exports_match_the_benchmark_digests(capsys, key):
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _EXPECTED[key]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_in_a_shuffled_check_order_prints_the_benchmark_blocks(capsys, seed):
    # the checks share one tally of each S_n, whichever check builds it first;
    # the order is drawn as the benchmark's `verify` workload draws it
    rsk_tally.cache_clear()
    checks = list(verify.CHECK_NAMES)
    random.Random(f"verify:{seed}").shuffle(checks)
    assert main(["verify", *checks]) == 0
    blocks = _BENCHMARK_OUTPUT["verify_blocks"]
    lines = iter(capsys.readouterr().out.splitlines(keepends=True))
    for check in checks:
        block = blocks[check]
        assert "".join(islice(lines, block.count("\n"))) == block
    assert list(lines) == ["189/189 checks passed\n"]


@pytest.mark.parametrize("check", _S8_CHECKS)
def test_s8_sweeps_match_the_benchmark_digests(capsys, check):
    # the benchmark's `perms` ops: each S_n read from its tally, up to S_8
    key = f"verify {check} --max-n 8"
    assert main(key.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _EXPECTED[key]


_PINNED_ABOVE = {*_CRYSTAL_OPS, *(f"verify {check} --max-n 8" for check in _S8_CHECKS)}


@pytest.mark.parametrize("key", [key for key in _EXPECTED if key not in _PINNED_ABOVE])
def test_every_other_benchmark_op_matches_its_digest(capsys, key):
    # the benchmark's `shapes` ops, and any op added to its digests later: with the
    # two tests above, every digest in perfbench/expected.json is pinned
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _EXPECTED[key]


BAD_SHAPE_ERRORS = {
    "skeleton 10": "1,0 (each digit of 10 is a part; write 10, for one part)",
    "crystal 10 3": "1,0 (each digit of 10 is a part; write 10, for one part)",
    "tableaux 12 --syt": "1,2 (each digit of 12 is a part; write 12, for one part)",
    "skeleton 3,0,1": "3,0,1 (each digit of 301 is a part; write 301, for one part)",
    "skeleton 12,13": "12,13",  # a part of two digits: not read from a digit string
    "skeleton 0": "0",  # one part: nothing to join
}


@pytest.mark.parametrize("command", BAD_SHAPE_ERRORS)
def test_bad_shape_is_named_as_read(command):
    # a digit string reads one part per digit; the error names the parts as read
    # and, when each is one digit, the spelling of the one part, which is accepted
    argv = command.split()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"error: not a partition: {BAD_SHAPE_ERRORS[command]}"
    if argv[1].isdigit() and len(argv[1]) > 1:
        assert main([argv[0], argv[1] + ",", *argv[2:]]) == 0


def test_import_loads_neither_dataclasses_nor_fractions():
    # each command imports skelpoly.cli in a fresh interpreter, so what the import
    # adds to a bare interpreter's sys.modules is paid on every run
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    script = (
        "import sys; bare = set(sys.modules); import skelpoly.cli;"
        " print(*sorted(set(sys.modules) - bare))"
    )
    added = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert "skelpoly.cli" in added
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(added)


def test_closed_pipe_exits_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "skelpoly.cli", "crystal", "4,2,2", "7", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=err,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()  # the JSON is megabytes, far more than a pipe buffers
        assert proc.wait(timeout=60) == 1
    assert (tmp_path / "stderr").read_bytes() == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["crystal", "4,2,2", "7", "--format", "json"],
        ["tableaux", "5,4,3", "--syt", "--format", "json"],
        ["skeleton", "--table", "9", "--format", "json"],
    ],
)
def test_reader_closing_mid_stream_ends_the_export_quietly(tmp_path, argv):
    # A streamed export has written its first chunks when the reader goes away;
    # the next write fails, and the command must end with status 1, no traceback.
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "skelpoly.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env={**os.environ, "PYTHONPATH": src},
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert len(head) == 100
    assert (tmp_path / "stderr").read_bytes() == b""


def _written(obj) -> str:
    return "".join(cli._json_chunks(obj))


_KEYS = st.text(max_size=4) | st.integers() | st.booleans() | st.none()
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_INT_ARRAYS = st.lists(
    st.lists(st.integers(-3, 300), max_size=4).map(tuple)
    | st.lists(st.lists(st.integers(0, 12), max_size=3), max_size=3),
    max_size=9,
)
_VALUES = st.recursive(
    _SCALARS | _INT_ARRAYS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=40,
)


@given(_VALUES)
@example([[[1, 2], [3, 4]], [[5, 6]], [[7, 8], [9, 10], [11, 12]]])  # same cells, other rows
@example([[[1, 2], [3]], [[4], [5, 6]]])  # same rows, other lengths
@example([[[1], []], [[2], []], [[3]]])
@example([[1, 2], [3], [], [4, 5], (6,)])
@example([1, True, 0, False, None, 2.5, "3"])
def test_json_writer_matches_the_stdlib_layout(obj):
    # a batch of 3 splits runs of same-shaped items across batches
    for batch in (3, cli._BATCH):
        with mock.patch.object(cli, "_BATCH", batch):
            expected = json.dumps(obj, indent=2)
            assert _written(obj) == expected
            assert _written(iter(obj) if isinstance(obj, list) else obj) == expected


@pytest.mark.parametrize(
    "shape", [()] + [lam for n in range(1, 6) for lam in partitions(n)]
)
def test_crystal_json_matches_the_stdlib_layout(shape):
    # the reference is built from the graph's tableaux, apart from the streamed payload;
    # batches of 3 split the vertices, weights and edges as the build and the writer read them
    for bound, batch in product(range(len(shape), 6), (3, None)):
        with mock.patch.multiple(cli, _BATCH=batch or cli._BATCH), \
                mock.patch.multiple(crystal, _BATCH=batch or crystal._BATCH):
            graph = build_crystal(shape, bound)
            payloads = [_written(graph_json(graph, inner_only)) for inner_only in (False, True)]
        position = {t: i for i, t in enumerate(graph.vertices)}
        for inner_only, written in zip((False, True), payloads):
            classes = inner_crystal(graph) if inner_only else graph.classes
            reference = {
                "shape": list(shape),
                "bound": bound,
                "vertices": [t.to_json() for t in graph.vertices],
                "weights": [list(weight(t)) for t in graph.vertices],
                "edges": [list(edge) for edge in graph.edges],
                "classes": [
                    {
                        "representative": qc.representative.to_json(),
                        "descent": list(qc.descent),
                        "members": [position[t] for t in qc.members],
                    }
                    for qc in classes
                ],
            }
            assert written == json.dumps(reference, indent=2)


def test_json_templates_stay_few_on_long_weights():
    # the weights of (1,) at bound 1500 ask for a template of every length up to 1500
    cli._template.cache_clear()
    written = _written(graph_json(build_crystal((1,), 1500)))
    info = cli._template.cache_info()
    assert info.misses >= 1500 and info.currsize <= info.maxsize == 64
    assert json.loads(written)["weights"][-1] == [0] * 1499 + [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "json"],
        ["verify", "s6-inversions", "bks", "--timing", "--format", "json"],
        ["tableaux", "3,2,1", "--syt", "--format", "json"],
        ["tableaux", "2,1", "--ssyt", "3", "--format", "json"],
        ["skeleton", "--table", "5", "--format", "json"],
        ["skeleton", "4,2", "--deep", "--format", "json"],
        ["rsk", "3412", "--format", "json"],
    ],
)
def test_json_exports_match_the_stdlib_layout(capsys, argv):
    main(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


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


@pytest.mark.parametrize("fmt, digest", [
    ([], "a351ec34c7cb20378f54e249d5d936a31f40ff93f63fd83a2fdc4d8b779b63ec"),
    (["--format", "json"], "6c98bf488bbe0171f475c992cd65c29746218491dc09ddc9aa1a011ddcd3069d"),
])
def test_verify_report_support_lists_the_rows_as_before(capsys, fmt, digest):
    # the support and its collisions come from the rows, swept only when asked for;
    # the digests are of the output that the check printed when it swept every S_n
    assert main(["verify", "skeleton-rs", "--max-n", "5", "--report-support", *fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "checks", [["mahonian"], ["skeleton-r", "skeleton-rsk"], ["s6-inversions", "counting"]]
)
def test_verify_refuses_report_support_without_skeleton_rs(capsys, checks, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("checks ran although the flag was refused")

    monkeypatch.setattr(cli, "run_checks", must_not_run)
    with pytest.raises(SystemExit) as exc:
        main(["verify", *checks, "--report-support"])
    assert exc.value.code == "error: --report-support applies only to skeleton-rs"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("checks", [["all"], [], ["mahonian", "skeleton-rs"]])
def test_verify_report_support_with_skeleton_rs_selected(checks, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_checks", lambda *args, **kwargs: calls.append(kwargs) or [])
    assert main(["verify", *checks, "--report-support"]) == 0
    assert calls == [{"max_n": None, "report_support": True}]


def test_verify_refuses_max_n_when_no_check_takes_a_bound(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("checks ran although the flag was refused")

    monkeypatch.setattr(cli, "run_checks", must_not_run)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s6-inversions", "--max-n", "3"])
    assert exc.value.code == "error: --max-n bounds none of: s6-inversions"
    assert capsys.readouterr().out == ""


def test_verify_max_n_with_a_bounded_check_beside_s6_inversions(capsys):
    code, out = run_cli(capsys, "verify", "all", "--max-n", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "31/31 checks passed"
    code, out = run_cli(capsys, "verify", "s6-inversions", "bks", "--max-n", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4/4 checks passed"


def test_verify_runs_a_check_named_twice_once(capsys):
    code, out = run_cli(capsys, "verify", "mahonian", "mahonian", "--max-n", "2")
    assert code == 0
    assert out == "PASS mahonian [n=1]\nPASS mahonian [n=2]\n2/2 checks passed\n"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s6-inversions", "s6-inversions", "--max-n", "2"])
    assert exc.value.code == "error: --max-n bounds none of: s6-inversions"


def test_verify_env_bound(capsys, monkeypatch):
    # only --max-n sets the bound; the environment does not
    monkeypatch.setenv("SKELETON_MAX_N", "3")
    code, out = run_cli(capsys, "verify", "charge-depth")
    assert code == 0
    assert out.strip().splitlines()[-1] == "7/7 checks passed"


SWEEPING_CHECKS = [
    name for name, (_, _, _, largest) in verify._CHECKS.items() if largest == verify._SWEEP_MAX_N
]


@pytest.mark.parametrize(
    "checks, first",
    [([name], name) for name in sorted(SWEEPING_CHECKS)]
    + [(["hook-sum", "mahonian"], "mahonian"), (["all"], "skeleton-r"), ([], "skeleton-r")],
)
def test_verify_refuses_runaway_permutation_sweep(checks, first, monkeypatch):
    def must_not_enumerate(n):
        raise AssertionError("S_n enumeration reached for a refused size")

    monkeypatch.setattr(verify, "perm_table", must_not_enumerate)
    monkeypatch.setattr(verify, "rsk_tally", must_not_enumerate)
    expected = (
        f"error: verify {first} at n=11 has 39916800 permutations,"
        f" above the limit of {verify.MAX_PERMUTATIONS}"
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", *checks, "--max-n", "11"])
    assert exc.value.code == expected


@pytest.mark.parametrize("checks", [["skeleton-rsk"], ["all"], []])
@pytest.mark.parametrize("n", ["11", "12"])
def test_verify_refuses_skeleton_rsk_above_the_sweep_limit(checks, n, monkeypatch):
    def must_not_enumerate(n):
        raise AssertionError("S_n enumeration reached for a refused size")

    monkeypatch.setattr(verify, "perm_table", must_not_enumerate)
    monkeypatch.setattr(verify, "rsk_tally", must_not_enumerate)
    # `all`, named or by default, is refused at its first check, which sweeps too
    first = "skeleton-rsk" if checks == ["skeleton-rsk"] else "skeleton-r"
    expected = (
        f"error: verify {first} at n={n} has {factorial(int(n))} permutations,"
        f" above the limit of {verify.MAX_PERMUTATIONS}"
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", *checks, "--max-n", n])
    assert exc.value.code == expected


@pytest.mark.parametrize("checks", [["mahonian"], ["bks", "schur-family", "mahonian"]])
@pytest.mark.parametrize("n", ["100000", "5000000", "99999999999999999999"])
def test_verify_refuses_a_huge_bound_at_once(checks, n, monkeypatch):
    # the count is named as n!, never computed; the first check named is refused,
    # and lists no partition
    def must_not_enumerate(n):
        raise AssertionError("enumeration reached for a refused size")

    monkeypatch.setattr(verify, "perm_table", must_not_enumerate)
    monkeypatch.setattr(verify, "rsk_tally", must_not_enumerate)
    monkeypatch.setattr(verify, "partitions", must_not_enumerate)
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", *checks, "--max-n", n])
    assert time.perf_counter() - started < 1
    assert exc.value.code == (
        f"error: verify mahonian at n={n} has {n}! permutations, above the limit of 3628800"
        if checks[0] == "mahonian"
        else f"error: verify bks at n={n} is above its limit of n=12"
    )


@pytest.mark.parametrize(
    "check, largest",
    [("hook-sum", 16), ("bks", 12), ("schur-family", 12), ("linear-independence", 12)],
)
def test_verify_refuses_a_table_check_above_its_limit(check, largest, monkeypatch):
    # these checks sweep no S_n, so the refusal speaks of n alone
    def must_not_enumerate(*args):
        raise AssertionError("enumeration reached for a refused size")

    monkeypatch.setattr(verify, "partitions", must_not_enumerate)
    monkeypatch.setattr(verify, "quasi_kostka_coefficient", must_not_enumerate)
    for n in (largest + 1, 40, 99999999999999999999):
        with pytest.raises(SystemExit) as exc:
            main(["verify", check, "--max-n", str(n)])
        assert exc.value.code == f"error: verify {check} at n={n} is above its limit of n={largest}"
        assert "permutation" not in exc.value.code


def test_verify_huge_bound_exits_1_without_a_traceback():
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from skelpoly.cli import main; sys.exit(main())",
         "verify", "mahonian", "--max-n", "99999999999999999999"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: verify mahonian at n=99999999999999999999 has ")
    assert "Traceback" not in done.stderr


def test_permutation_limit_admits_n10_only():
    assert factorial(10) == verify.MAX_PERMUTATIONS < factorial(11)


def test_verify_sweep_limit_leaves_other_checks(capsys):
    code, out = run_cli(capsys, "verify", "s6-inversions", "linear-independence", "--max-n", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "3/3 checks passed"
    code, out = run_cli(capsys, "verify", "hook-sum", "--max-n", "11")
    assert code == 0
    assert out.strip().splitlines()[-1] == "11/11 checks passed"


def test_verify_unknown_check(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_rsk_rejects_zero_letter(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rsk", "0"])
    assert str(exc.value.code).startswith("error: letters must be positive")


def test_verify_rejects_nonpositive_bound(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "mahonian", "--max-n", "0"])


def test_benchmark_trace_mode_runs():
    # The benchmark's trace mode rebinds public names of every layer (see
    # perfbench/child.py); a renamed or removed one fails here, not in a bench run.
    # One tiny op per command the benchmark runs.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for argv in (
        ["verify", "--max-n", "3"],
        ["crystal", "2,1", "3"],
        ["skeleton", "3,2"],
        ["tableaux", "3,2", "--qy"],
    ):
        read_fd, write_fd = os.pipe()
        try:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    os.path.join(root, "perfbench", "child.py"),
                    str(write_fd),
                    "trace",
                    os.path.join(root, "src"),
                    *argv,
                ],
                pass_fds=(write_fd,),
                stdout=subprocess.DEVNULL,
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd) as info:
            record = json.load(info)
        assert proc.wait(timeout=120) == 0, argv
        assert record["error"] is None, argv


# Reading the command line.  `build_parser` is the argparse parser `cli.parse_args`
# replaced, kept here as its oracle.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelpoly",
        description="Exact computations with tableaux, crystals, RSK, and skeleton polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_skeleton = sub.add_parser("skeleton", help="skeleton polynomial of a shape")
    p_skeleton.add_argument("shape", nargs="?", type=parse_parts,
                            help="partition, e.g. 3,2 or 32")
    p_skeleton.add_argument("--i", type=int, default=None, help="restrict to descent length i")
    p_skeleton.add_argument("--deep", action="store_true", help="grade terms by depth in q")
    p_skeleton.add_argument("--eval-ones", action="store_true", help="evaluate at all ones")
    p_skeleton.add_argument("--table", type=int, default=None, metavar="N",
                            help="emit the table of all shapes of size at most N")
    p_skeleton.add_argument("--format", choices=("text", "json", "csv", "latex"), default="text")
    p_skeleton.set_defaults(func=cli._cmd_skeleton)

    p_tableaux = sub.add_parser("tableaux", help="enumerate tableaux of a shape")
    p_tableaux.add_argument("shape", type=parse_parts)
    p_tableaux.add_argument("--qy", action="store_true", help="quasi-Yamanouchi tableaux")
    p_tableaux.add_argument("--syt", action="store_true", help="standard tableaux")
    p_tableaux.add_argument("--ssyt", type=int, default=None, metavar="N",
                            help="semistandard tableaux with entries at most N")
    p_tableaux.add_argument("--weight", type=parse_parts, default=None,
                            help="semistandard with this weight")
    p_tableaux.add_argument("--des", type=parse_parts, default=None,
                            help="with --syt: fix the descent composition")
    p_tableaux.add_argument("--format", choices=("text", "json"), default="text")
    p_tableaux.set_defaults(func=cli._cmd_tableaux)

    p_rsk = sub.add_parser("rsk", help="row insertion of a word or permutation")
    p_rsk.add_argument("word", type=parse_parts, help="e.g. 57841362 or 10,3,4,11")
    p_rsk.add_argument("--format", choices=("text", "json"), default="text")
    p_rsk.set_defaults(func=cli._cmd_rsk)

    p_crystal = sub.add_parser("crystal", help="bounded crystal graph of a shape")
    p_crystal.add_argument("shape", type=parse_parts)
    p_crystal.add_argument("bound", type=int)
    p_crystal.add_argument("--inner", action="store_true",
                           help="restrict exports to the inner crystal")
    p_crystal.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_crystal.add_argument("--dot", dest="format", action="store_const", const="dot",
                           help="shorthand for --format dot")
    p_crystal.set_defaults(func=cli._cmd_crystal)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("checks", nargs="*", metavar="CHECK",
                          help=f"any of: all, {', '.join(verify.CHECK_NAMES)}")
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="override the per-check bound")
    p_verify.add_argument("--report-support", action="store_true",
                          help="attach monomial-support data to skeleton-rs results")
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall times (output is no longer reproducible)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cli._cmd_verify)

    return parser


_ORACLE = build_parser()
(_COMMAND_ACTION,) = _ORACLE._subparsers._group_actions  # the command and its subparsers


def _parse(parse, argv):
    """(the attributes, None) when `parse` accepts `argv`, else (None, its exit code),
    with what it printed to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            read = vars(parse(list(argv))), None
        except SystemExit as exc:
            read = None, exc.code
    return read, out.getvalue(), err.getvalue()


def _verify_intermixed(argv):
    """argparse's reading of `verify` with checks on both sides of its flags: the
    checks after a `--` join those read among the flags before it."""
    dashes = argv.index("--") if "--" in argv else len(argv)
    args = _COMMAND_ACTION.choices["verify"].parse_intermixed_args(argv[1:dashes])
    args.checks += argv[dashes + 1 :]
    args.command = "verify"
    return args


def _differs_as_allowed(argv, expected, read):
    """Where `parse_args` may read `argv` otherwise than argparse did (README,
    "Command line"): the checks of `verify` may come after its flags, and a value
    that argparse read as [] from a lone `--` is refused."""
    if argv[0] == "verify" and expected[1] == 2 and read[0] is not None:
        return read == _parse(_verify_intermixed, argv)[0]
    return read[1] == 2 and expected[0] is not None and expected[0].get("bound") == []


# A value for each flag, and the positionals each command needs.
_FLAG_VALUES = {
    "skeleton": {"--i": "2", "--deep": None, "--eval-ones": None, "--table": "3",
                 "--format": "csv"},
    "tableaux": {"--qy": None, "--syt": None, "--ssyt": "3", "--weight": "2,1,1",
                 "--des": "1,3", "--format": "json"},
    "rsk": {"--format": "json"},
    "crystal": {"--inner": None, "--format": "json", "--dot": None},
    "verify": {"--max-n": "3", "--report-support": None, "--timing": None, "--format": "json"},
}
_POSITIONALS = {"skeleton": ["3,2"], "tableaux": ["3,1"], "rsk": ["312"],
                "crystal": ["3,2", "3"], "verify": ["bks", "mahonian"]}


def _corpus():
    """Every flag of every command as `--flag value` and `--flag=value`, cut to each
    prefix, with negative, repeated and missing values, both orders of --dot and
    --format, `--`, the help flags, and misuses of each kind."""
    for command, flags in _FLAG_VALUES.items():
        given = _POSITIONALS[command]
        yield [command, *given]
        yield [command, "-h"]
        yield [command, *given, "--help"]
        yield [command, "--", *given]
        yield [command, *given[:-1]]  # a positional missing
        yield [command, *given, "extra"]
        yield [command, *given, "--nope"]
        yield [command, *given, "--format", "yaml"]
        yield [command, *given, "--format=dot", "--format", "text"]  # the last one wins
        yield [command, *given, "--=x"]  # a prefix of every flag
        for flag, value in flags.items():
            for cut in range(3, len(flag) + 1):  # the flag and each abbreviation of it
                name = flag[:cut]
                unique = [f for f in [*flags, "--help"] if f.startswith(name)] == [flag]
                if value is None:
                    yield [command, *given, name]
                    yield [command, name, *given]
                    yield [command, *given, f"{name}=x"]
                elif unique or name == flag:
                    yield [command, *given, name, value]
                    yield [command, *given, f"{name}={value}"]
                    yield [command, name, value, *given]
                    yield [command, *given, name]  # the value missing
                    yield [command, *given, name, "--format"]
                else:
                    yield [command, *given, name, value]  # ambiguous
            if value is not None:
                yield [command, *given, flag, value, flag, value + "1"]  # repeated
                yield [command, *given, f"{flag}="]  # an empty value
                yield [command, *given, flag, "x"]
    for flag in ("--i", "--table"):
        yield ["skeleton", flag, "-1"]
        yield ["skeleton", f"{flag}=-3"]
        yield ["skeleton", flag, "9" * 5000]  # past the int digit limit
        yield ["skeleton", flag, "-.5"]
        yield ["skeleton", flag, "-1x"]
        yield ["skeleton", flag, "３"]
    yield from (["crystal", "3,2", "-1"], ["crystal", "-1", "3,2"], ["crystal", "3,2", "²"])
    yield from (["tableaux", "3,2", "--ssyt", "-2"], ["verify", "--max-n", "-5"])
    yield from (["crystal", "3,2", "3", "--dot", "--format", "json"],
                ["crystal", "3,2", "3", "--format", "json", "--dot"],
                ["crystal", "3,2", "3", "--format=text", "--do"],
                ["crystal", "--dot", "3,2", "3", "--form=json"])
    yield from (["tableaux", "3,2", "--s", "3"], ["tableaux", "3,2", "--syt", "--des", "--qy"])
    yield from (["tableaux", "3,2", "--help", "--s"], ["skeleton", "--table", "-1 "])
    yield from (["skeleton", "3,2", "--deep", "--"], ["skeleton", "--deep", "3,2", "--"],
                ["skeleton", "--table", "3", "--"], ["crystal", "3,2", "--", "4", "--"])
    yield from ([], ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"], ["-h="], ["--help=x"],
                ["--", "skeleton", "3,2"], ["skel", "3,2"], ["-1"], [""], ["--nope", "verify"],
                ["-h", "-=0"], ["rsk", "312", "-=x", "--help"])
    yield from (["skeleton", "-hh"], ["skeleton", "-h=h"], ["skeleton", "-hx"],
                ["skeleton", "3,2", "-1", "--help"], ["skeleton", "-", "x"])
    yield from (["verify", "mahonian", "--max-n", "2", "bks"],
                ["verify", "bks", "--timing", "--", "--max-n"],
                ["crystal", "4", "--", "--"])


def test_parse_args_reads_the_corpus_as_argparse_did():
    outcomes, differences = set(), []
    for argv in _corpus():
        expected, _, _ = _parse(_ORACLE.parse_args, argv)
        read, _, err = _parse(cli.parse_args, argv)
        outcomes.add("accepted" if expected[0] else expected[1])
        if read != expected and not _differs_as_allowed(argv, expected, read):
            differences.append((argv, expected, read))
        if read[1] == 2:
            assert [line for line in err.splitlines() if "error:" in line] != [], argv
    assert differences == []
    assert outcomes == {"accepted", 0, 2}


def test_parse_args_allows_checks_after_the_flags_of_verify():
    # argparse refuses a check after a flag's value ("unrecognized arguments: bks")
    argv = ["verify", "mahonian", "--max-n", "2", "bks"]
    assert _parse(_ORACLE.parse_args, argv)[0] == (None, 2)
    args = cli.parse_args(argv)
    assert (args.checks, args.max_n, args.func) == (["mahonian", "bks"], 2, cli._cmd_verify)


def test_a_lone_dash_dash_is_no_bound():
    # argparse read `crystal 4 -- --` with bound [], and the command raised a TypeError
    read, _, err = _parse(cli.parse_args, ["crystal", "4", "--", "--"])
    assert read == (None, 2)
    assert err.splitlines()[-1].startswith("skelpoly crystal: error: argument bound: ")


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_lists_every_command_and_flag_with_its_help(command):
    argv = [command, "--help"] if command else ["-h"]
    read, out, err = _parse(cli.parse_args, argv)
    assert (read, err) == ((None, 0), "")
    assert out.startswith(f"usage: skelpoly{f' {command}' if command else ''} ")
    if command is None:
        shown = [(action.dest, action.help) for action in _COMMAND_ACTION._choices_actions]
    else:
        actions = _COMMAND_ACTION.choices[command]._actions
        shown = [(action.option_strings[-1] if action.option_strings else action.dest,
                  action.help) for action in actions if action.dest != "help"]
    for name, text in shown:
        row = next(line for line in out.splitlines() if line.startswith(f"  {name}"))
        assert text is None or row.endswith(text)


_TOKENS = sorted(
    {flag[:cut] for flags in _FLAG_VALUES.values() for flag in [*flags, "--help"]
     for cut in range(2, len(flag) + 1)}
    | {"-h", "-hh", "-hx", "--", "-", "---", "--nope", "-x"}
)
_VALUE = st.sampled_from(["0", "-1", "-3", "", "３", "²", "-３", "9" * 5000, "-" + "9" * 5000,
                          "-1 ", "3,2", "32", "1,x", "3,", "text", "json", "bks"]) | st.text(
    max_size=3)
_TOKEN = _VALUE | st.sampled_from(_TOKENS) | st.builds(
    "{}={}".format, st.sampled_from(_TOKENS), _VALUE)
_ARGV = st.builds(lambda head, rest: [head, *rest],
                  st.sampled_from([*cli._COMMANDS, "-h", "--he", "--", "skel", ""]),
                  st.lists(_TOKEN, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_ARGV)
@example(["skeleton", "9223372036854775807,"])  # parsed, not run: the count would not end
@example(["crystal", "3,2", "--table", "9" * 5000])
@example(["tableaux", "3,2", "-h", "--s"])  # argparse refuses an ambiguous flag before all else
def test_parse_args_on_drawn_argv(argv):
    # parse only: parses, prints the help, or exits 2 with one error line; as argparse
    read, out, err = _parse(cli.parse_args, argv)
    if read[1] == 2:
        assert out == "" and len([line for line in err.splitlines() if "error:" in line]) == 1
    elif read[1] == 0:
        assert out.startswith("usage: ") and err == ""
    else:
        assert read[0]["func"] is cli._COMMANDS[read[0]["command"]][1]
    expected, _, _ = _parse(_ORACLE.parse_args, argv)
    assert read == expected or _differs_as_allowed(argv, expected, read)


def test_parsing_loads_neither_argparse_nor_gettext_nor_locale():
    # each command runs in a fresh interpreter: these imports cost every run milliseconds
    src = os.path.dirname(os.path.dirname(skelpoly.__file__))
    script = (
        "import sys, skelpoly.cli; skelpoly.cli.main(['skeleton', '3,2']);"
        " print('loaded:', *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == "x^32 + x^23 + x^221 + x^131 + x^122\nloaded:\n"
