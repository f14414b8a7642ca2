import json
import os
import subprocess
import sys

import pytest

import golomb.cli as cli
import golomb.lattice as lattice
import golomb.mixed_graphs as mixed_graphs
import golomb.rulers as rulers
from golomb.cli import main
from golomb.fixtures import KNOWN_COUNTS_M3

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# eight vertices, twelve edges and five arcs, arcs in both index directions
GRAPH8 = os.path.join(REPO, "tests", "mixed_graph_8.json")

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golomb_count_single(capsys):
    code, out, _ = run_cli(capsys, "golomb-count", "--m", "3", "--t", "18", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"m": 3, "rows": [{"t": 18, "count": 98}]}


def test_golomb_count_range_text(capsys):
    code, out, _ = run_cli(capsys, "golomb-count", "--m", "1", "--t-min", "5", "--t-max", "7")
    assert code == 0
    assert out.splitlines() == ["5\t1", "6\t1", "7\t1"]


def test_golomb_count_csv(capsys):
    code, out, _ = run_cli(
        capsys, "golomb-count", "--m", "2", "--t-min", "3", "--t-max", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,count"
    assert lines[1:] == ["3,2", "4,2", "5,4"]


def test_check_table1_passes(capsys):
    code, out, _ = run_cli(capsys, "golomb-count", "--check-table1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["ok"] is True
    assert {row["t"]: row["count"] for row in payload["rows"]} == KNOWN_COUNTS_M3


def test_check_table1_wrong_m_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "golomb-count", "--m", "4", "--check-table1")
    assert code == 1
    assert "m=3" in err


@pytest.mark.parametrize(
    "lengths", [("--t", "5"), ("--t-min", "6"), ("--t-max", "35"), ("--t-min", "6", "--t-max", "35")]
)
def test_check_table1_with_lengths_is_usage_error(capsys, lengths):
    code, out, err = run_cli(capsys, "golomb-count", "--check-table1", *lengths)
    assert code == 1 and out == ""
    assert "not both" in err


def test_json_output_reserializes_byte_for_byte(capsys):
    for argv in (
        ["golomb-count", "--m", "3", "--t-min", "6", "--t-max", "9", "--format", "json"],
        ["quasipoly", "--m", "2", "--format", "json"],
        ["regions", "--m", "3", "--list", "--format", "json"],
        ["reciprocity", "golomb", "--m", "2", "--t", "4", "--format", "json"],
        ["vertices", "--m", "3", "--format", "json"],
        ["mixed", "chroma", "--fixture", "triangle", "--t", "4", "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_quasipoly_m3(capsys):
    code, out, _ = run_cli(capsys, "quasipoly", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["period_bound"] == 12
    assert payload["minimal_period"] == 12
    assert payload["leading_coefficient"] == "1/2"
    assert payload["value_at_zero"] == "10"
    assert payload["quasipolynomial"]["period"] == 12
    assert payload["quasipolynomial"]["constituents"][0] == ["10", "-4", "1/2"]


def test_quasipoly_m1(capsys):
    code, out, _ = run_cli(capsys, "quasipoly", "--m", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quasipolynomial"] == {"period": 1, "constituents": [["1"]]}


def test_regions_counts(capsys):
    code, out, _ = run_cli(capsys, "regions", "--m", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 3, "count": 10}
    code, out, _ = run_cli(capsys, "regions", "--m", "2", "--format", "json")
    assert json.loads(out)["count"] == 2


def test_regions_count_is_read_off_the_lattice(capsys, monkeypatch):
    # the count alone builds the lattice and never runs the census; --list
    # runs the census and builds no lattice
    def no_census(*args, **kwargs):
        raise AssertionError("the count ran the orientation census")

    calls = record_lattice_builds(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(cli.golomb_graph, "_enumerate_orders", no_census)
        assert run_cli(capsys, "regions", "--m", "5") == (0, "m = 5\ncount = 2608\n", "")
    assert calls == [5]
    code, out, _ = run_cli(capsys, "regions", "--m", "4", "--list", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == len(json.loads(out)["orientations"]) == 114
    assert calls == [5]


def test_regions_count_budget_caps_the_lattice_joins(capsys, monkeypatch):
    # m = 4 spends 246 joins; the census behind --list is not charged for them
    monkeypatch.setattr(lattice, "_LATTICES", {})
    assert run_cli(capsys, "regions", "--m", "4", "--budget", "245") == (
        2, "", "error: search budget of 245 nodes exceeded in intersection lattice of the m=4 hyperplanes\n"
    )
    assert run_cli(capsys, "regions", "--m", "4", "--budget", "246") == (0, "m = 4\ncount = 114\n", "")
    code, out, err = run_cli(capsys, "regions", "--m", "4", "--list", "--budget", "245")
    assert (code, out) == (2, "") and "admissible orientation search" in err


@pytest.mark.slow
def test_m6_regions_count_both_ways(capsys):
    # the count off the lattice, and the census listing every cell
    assert run_cli(capsys, "regions", "--m", "6") == (0, "m = 6\ncount = 107498\n", "")
    code, out, _ = run_cli(capsys, "regions", "--m", "6", "--list", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == len(payload["orientations"]) == 107498


def test_reciprocity_golomb(capsys):
    code, out, _ = run_cli(
        capsys, "reciprocity", "golomb", "--m", "3", "--t", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["rows"] == [{"t": 0, "lhs": "10", "rhs": 10, "ok": True}]


def test_reciprocity_mixed_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "reciprocity", "mixed", "--fixture", "triangle", "--t", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == "30" and payload["rhs"] == 30 and payload["ok"] is True


def test_reciprocity_mixed_over_budget_fails_fast(capsys, monkeypatch):
    # the triangle's reciprocity sum visits 3^3 subset pairs, whatever t is
    def never(*args, **kwargs):
        raise AssertionError("the sum was computed although it cannot fit the budget")

    monkeypatch.setattr(mixed_graphs, "_top_color_counts", never)
    monkeypatch.setattr(mixed_graphs, "_level_counts", never)
    code, out, err = run_cli(
        capsys, "reciprocity", "mixed", "--fixture", "triangle", "--t", "150", "--budget", "26"
    )
    assert code == 2
    assert out == "" and "3^3 subset pairs of the mixed reciprocity sum" in err


def test_reciprocity_mixed_at_a_large_t(capsys):
    # 50^8 maps would be over the default budget; the sum visits 3^8 subset pairs
    code, out, _ = run_cli(
        capsys, "reciprocity", "mixed", "--input", GRAPH8, "--t", "50", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["lhs"] == str(payload["rhs"])


def record_lattice_builds(monkeypatch) -> list[int]:
    """The m of every intersection lattice built from here on, none cached."""
    calls = []
    original = lattice._build

    def counted(m, limit):
        calls.append(m)
        return original(m, limit)

    monkeypatch.setattr(lattice, "_build", counted)
    monkeypatch.setattr(lattice, "_LATTICES", {})
    return calls


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("quasipoly", "--m", "3"), "period_bound", 12),
        (("vertices", "--m", "3"), "period_bound", 12),
        # one period bound serves the cheap refusal and the quasipolynomial
        (("reciprocity", "golomb", "--m", "3", "--t", "5"), "ok", True),
    ],
    ids=["quasipoly", "vertices", "reciprocity"],
)
def test_vertices_are_enumerated_once_per_command(capsys, monkeypatch, argv, key, value):
    # the vertices and the period bound are read off the lattices of
    # k = 1..3, each built once per command
    calls = record_lattice_builds(monkeypatch)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)[key] == value
    assert calls == [3, 2, 1]


def test_quasipoly_has_no_period_override(capsys):
    # the period is always the bound; the payload reports the minimal one
    assert run_cli(capsys, "quasipoly", "--m", "3", "--period", "12") == (
        1, "", "error: unrecognized arguments: --period 12\n"
    )


@pytest.mark.parametrize(
    "argv", [("golomb-count", "--m", "4", "--t-min", "1", "--t-max", "20"), ("quasipoly", "--m", "3")]
)
def test_one_ruler_search_per_command(capsys, monkeypatch, argv):
    from golomb import rulers

    calls = []
    original = rulers._search

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rulers, "_search", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1


@pytest.fixture
def parsers_made(monkeypatch):
    """The prog of every parser `main` builds, in the order built."""
    made = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    return made


def test_a_command_builds_only_its_own_parser(capsys, parsers_made):
    code, out, _ = run_cli(capsys, "quasipoly", "--m", "2", "--format", "json")
    assert code == 0 and json.loads(out)["m"] == 2
    assert parsers_made == ["golomb quasipoly"]


FULL_PARSER = ["golomb", *(f"golomb {name}" for name in cli.COMMANDS)]


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "error: the following arguments are required: command\n"),
        (("no-such-command", "--m", "2"),
         "error: argument command: invalid choice: 'no-such-command' (choose from 'golomb-count',"
         " 'quasipoly', 'regions', 'reciprocity', 'mixed', 'vertices')\n"),
    ],
    ids=["no-arguments", "unknown-command"],
)
def test_no_command_goes_through_the_full_parser(capsys, parsers_made, argv, message):
    assert run_cli(capsys, *argv) == (1, "", message)
    assert parsers_made == FULL_PARSER


def test_top_level_help_goes_through_the_full_parser(capsys, parsers_made):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: golomb [-h]")
    assert all(f"    {name} " in out for name in cli.COMMANDS)
    assert parsers_made == FULL_PARSER


@pytest.mark.parametrize(
    "argv",
    [
        ["quasipoly", "--m", "3", "--budget", "500"],
        ["golomb-count", "--m", "4", "--t-min", "1", "--t-max", "9", "--format", "csv"],
        ["reciprocity", "mixed", "--fixture", "triangle", "--t", "2", "--budget", "99"],
        ["mixed", "orientations", "--input", "g.json", "--jobs", "2", "--output", "o.txt"],
        ["vertices", "--m", "4", "--form", "json"],
    ],
)
def test_the_command_parser_reads_what_the_full_parser_reads(argv):
    own = vars(cli._parse(argv))
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert own == full


@pytest.fixture
def no_work(monkeypatch):
    """Make every computation a refused command line could start fail."""
    def never(*args, **kwargs):
        raise AssertionError("work started before the command line was refused")

    monkeypatch.setattr(cli, "reciprocity_check_golomb", never)
    monkeypatch.setattr(cli, "_load_graph", never)
    monkeypatch.setattr(cli, "golomb_counts", never)
    monkeypatch.setattr(cli.golomb_graph, "enumerate_constrained_orientations", never)
    monkeypatch.setattr(lattice, "_build", never)
    monkeypatch.setattr(lattice, "_LATTICES", {})


def first_word(argv):
    return argv[0]


@pytest.mark.parametrize("option", [("--input", "g.json"), ("--fixture", "triangle")], ids=first_word)
def test_golomb_reciprocity_refuses_graph_options(capsys, no_work, option):
    code, out, err = run_cli(capsys, "reciprocity", "golomb", "--m", "3", "--t", "2", *option)
    assert (code, out, err) == (1, "", f"error: golomb mode does not take {option[0]}\n")


@pytest.mark.parametrize("option", [("--m", "4"), ("--t-min", "0"), ("--t-max", "9")], ids=first_word)
def test_mixed_reciprocity_refuses_golomb_and_range_options(capsys, no_work, option):
    argv = ["reciprocity", "mixed", "--fixture", "triangle", "--t", "2", *option]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: mixed mode does not take {option[0]}\n")


@pytest.mark.parametrize("action", ["orientations", "chromatic-number"])
def test_mixed_actions_without_colors_refuse_t(capsys, no_work, action):
    code, out, err = run_cli(capsys, "mixed", action, "--fixture", "triangle", "--t", "5")
    assert (code, out, err) == (1, "", f"error: mixed {action} does not take --t\n")


@pytest.mark.parametrize(
    "argv", [("golomb-count", "--m", "4", "--t", "30"), ("regions", "--m", "5")], ids=first_word
)
@pytest.mark.parametrize("jobs", ["0", "2"])
def test_jobs_other_than_one_is_refused(capsys, no_work, argv, jobs):
    code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
    assert (code, out, err) == (1, "", "error: jobs must be 1: every search runs in one process\n")


def test_jobs_one_is_accepted(capsys):
    assert run_cli(capsys, "regions", "--m", "3", "--jobs", "1") == (0, "m = 3\ncount = 10\n", "")


def test_reciprocity_mixed_input_file(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 3], [2, 3]], "arcs": [[1, 2]]}))
    code, out, _ = run_cli(
        capsys, "reciprocity", "mixed", "--input", str(path), "--t", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["rhs"] == 12


def test_mixed_chroma(capsys):
    code, out, _ = run_cli(
        capsys, "mixed", "chroma", "--fixture", "triangle", "--t", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 12
    assert payload["polynomial"] == ["0", "1", "-3/2", "1/2"]


def test_mixed_chroma_reads_the_count_off_the_polynomial(capsys):
    # 2000^3 colour maps are over the default budget; chi already holds the count
    code, out, _ = run_cli(
        capsys, "mixed", "chroma", "--fixture", "triangle", "--t", "2000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 2000 * 1999 * 1998 // 2


def test_mixed_chroma_refuses_a_negative_t_before_counting(capsys, monkeypatch):
    def never_colored(*args, **kwargs):
        raise AssertionError("colorings were counted for a t the command refuses")

    monkeypatch.setattr(mixed_graphs, "_top_color_counts", never_colored)
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            capsys, "mixed", "chroma", "--fixture", "triangle", "--t", "-1", "--format", fmt
        )
        assert code == 1 and out == "" and "t must be >= 0" in err


@pytest.mark.parametrize("graph, named", [
    ({"n": 2, "edges": [[True, 2]], "arcs": []}, "vertex True"),
    ({"n": 2, "edges": [], "arcs": [[1, False]]}, "vertex False"),
    ({"n": True, "edges": [], "arcs": []}, "got True"),
])
def test_mixed_graph_json_refuses_booleans(tmp_path, capsys, graph, named):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "mixed", "orientations", "--input", str(path))
    assert code == 1 and out == "" and named in err


def test_vertices_refuse_m_below_one(capsys):
    for m in ("0", "-2"):
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "vertices", "--m", m, "--format", fmt)
            assert code == 1 and out == "" and "m must be >= 1" in err


def test_mixed_orientations(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]], "arcs": []}))
    code, out, _ = run_cli(capsys, "mixed", "orientations", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_mixed_chromatic_number(capsys):
    code, out, _ = run_cli(
        capsys, "mixed", "chromatic-number", "--fixture", "triangle", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["chromatic_number"] == 3


def test_vertices_csv(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--m", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z1,z2,z3"
    assert len(lines) == 10
    assert "1/4,1/4,1/2" in lines


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "regions", "--m", "2", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"m": 2, "count": 2}


def test_exit_code_usage():
    assert main(["golomb-count"]) == 1  # missing --m/--t
    assert main(["no-such-command"]) == 1
    assert main(["reciprocity", "golomb", "--t", "1"]) == 1  # missing --m
    assert main(["mixed", "chroma"]) == 1  # no input or fixture


def test_exit_code_budget(capsys):
    code, _, err = run_cli(capsys, "golomb-count", "--m", "4", "--t", "30", "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_vertex_budget_fails_before_any_work(capsys, monkeypatch):
    # m = 7 is above the enumeration bound, like `regions --m 7`, and is
    # refused before any lattice is built; m = 4 spends 246 lattice joins
    calls = record_lattice_builds(monkeypatch)
    code, out, err = run_cli(capsys, "vertices", "--m", "7")
    assert (code, out) == (1, "") and "m=7 is above the enumeration bound 6" in err
    assert calls == []
    code, out, err = run_cli(capsys, "vertices", "--m", "4", "--budget", "245")
    assert (code, out) == (2, "") and "budget of 245 nodes exceeded in intersection lattice of the m=4" in err
    monkeypatch.setattr(lattice, "_LATTICES", {})
    code, out, _ = run_cli(capsys, "vertices", "--m", "4", "--budget", "246", "--format", "json")
    assert code == 0 and len(json.loads(out)["vertices"]) == 42
    assert calls == [4, 4, 3, 2, 1]


def test_ruler_counts_that_cannot_fit_fail_fast(capsys, monkeypatch):
    # m = 4 asks for g_4(t), t = 1 .. 4 * 840, at least 2.6 * 10^12 nodes
    def never(*args, **kwargs):
        raise AssertionError("the ruler search ran although it cannot fit the budget")

    monkeypatch.setattr(rulers, "_search", never)
    for argv in (["quasipoly", "--m", "4"], ["reciprocity", "golomb", "--m", "4", "--t", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "at least 2603243205420 nodes" in err


@pytest.mark.parametrize(
    "argv, floor, allowed",
    [
        (("quasipoly", "--m", "6"), "at least 2939605672 nodes for t = 1..360", ("quasipoly", "--m", "3")),
        (("reciprocity", "golomb", "--m", "5", "--t", "0"), "at least 4131878516 nodes for t = 1..300",
         ("reciprocity", "golomb", "--m", "3", "--t", "0")),
    ],
    ids=["quasipoly", "reciprocity"],
)
def test_m5_and_m6_fail_before_the_vertex_search(capsys, monkeypatch, argv, floor, allowed):
    # lcm(1..m) divides the period bound, so the samples reach m * lcm(1..m);
    # the floor refuses before the lattices behind the period bound are built
    calls = record_lattice_builds(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and floor in err
    assert calls == []
    # the spy sits where a request the floor lets through builds them
    assert run_cli(capsys, *allowed)[0] == 0
    assert calls == [3, 2, 1]


def test_exit_code_input_error_on_bad_graph_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 1]], "arcs": []}))
    assert main(["mixed", "chroma", "--input", str(path), "--t", "2"]) == 1


def test_csv_rejected_where_not_tabular():
    assert main(["regions", "--m", "2", "--format", "csv"]) == 1


def test_budget_ignores_the_environment(capsys, monkeypatch):
    # g_4(30) under the default budget of 10^9
    argv = ("golomb-count", "--m", "4", "--t", "30", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["rows"] == [{"t": 30, "count": 1880}]
    for value in ("10", "not-a-number"):
        monkeypatch.setenv("GOLOMB_BUDGET", value)
        assert run_cli(capsys, *argv) == (0, out, "")
        assert rulers.golomb_counts(4, 30, 30) == {30: 1880}


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_refused_before_any_work(capsys, monkeypatch, budget):
    def never(*args, **kwargs):
        raise AssertionError("the ruler search ran under a budget below one")

    monkeypatch.setattr(rulers, "_search", never)
    code, out, err = run_cli(capsys, "golomb-count", "--m", "4", "--t", "30", "--budget", budget)
    assert (code, out) == (1, "") and err == "error: budget must be positive\n"


def test_vertices_of_m1(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 1, "period_bound": 1, "vertices": [["1"]]}


def run_python(*argv):
    """A fresh interpreter with this checkout's src first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = run_python("-m", "golomb", "golomb-count", "--m", "3", "--t", "6", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"] == [{"t": 6, "count": 2}]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # no search starts a process
    proc = run_python("-c", "import sys, golomb.cli; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_region_script_ends_a_budget_failure_like_the_cli():
    proc = run_python(os.path.join(REPO, "scripts", "region_census.py"), "--max-m", "3", "--budget", "5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: search budget of 5 nodes exceeded")
    assert "Traceback" not in proc.stderr
