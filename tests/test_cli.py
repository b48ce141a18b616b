"""End-to-end tests of the command-line interface."""

import io
import json
import sys

import pytest

from conegraph import cli
from conegraph.cli import main
from conegraph.corpus import load_corpus, random_nodeset
from conegraph.model import node_set_to_csv, node_set_to_json


@pytest.fixture()
def corpus_files(tmp_path):
    paths = {}
    for e in load_corpus():
        p = tmp_path / f"{e.name.lower()}.json"
        p.write_text(node_set_to_json(e.nodes))
        paths[e.name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build


def test_build_v0_k1_has_two_edges(corpus_files, capsys):
    code, out, _ = run(
        capsys, "build", "--input", corpus_files["V0"], "--family", "yao", "--k", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "yao"
    assert data["k"] == 1
    assert data["directed"] is False
    assert len(data["edges"]) == 2


def test_build_two_node_theta_k6(tmp_path, capsys):
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"nodes": [
        {"id": "s", "x": 0.0, "y": 0.0}, {"id": "t", "x": 2.0, "y": 1.0},
    ]}))
    code, out, _ = run(capsys, "build", "--input", str(p), "--family", "theta", "--k", "6")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 1


def test_build_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{this is not json")
    code, out, err = run(capsys, "build", "--input", str(p), "--family", "yao", "--k", "2")
    assert code == 2
    assert "error:" in err
    # an id that is neither a JSON string nor an integer is an input error too
    p.write_text('{"nodes": [{"id": null, "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}]}')
    code, out, err = run(capsys, "build", "--input", str(p), "--family", "yao", "--k", "2")
    assert (code, out) == (2, "")
    assert "node id must be a string or an integer, got None" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer digit limit")
def test_check_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "long.json"
    p.write_text('{"nodes": [{"id": "a", "x": %s, "y": 0}]}' % ("1" * 5001))
    code, out, err = run(capsys, "check", "--input", str(p), "--family", "yao", "--k", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit")


def test_unreadable_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "check", "--input", str(missing), "--family", "yao", "--k", "6")
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot read {missing}: "
                   f"[Errno 2] No such file or directory: {str(missing)!r}\n")


# each parser names the first faulty entry; set-level faults read the same
# for both formats
INPUT_FAULTS = [
    ("csv", "id,x,y\na,0,0\na,1,1\n", "duplicate node ids"),
    ("csv", "id,x,y\n", "a node set needs at least one node"),
    ("csv", "id,x,y\nb,zz,0\na,0\n",
     "malformed CSV node row ['b', 'zz', '0']: could not convert string to float: 'zz'"),
    ("csv", "id,x,y\na,0,0\nb,inf,0\n",
     "malformed CSV node row ['b', 'inf', '0']: non-finite coordinates: (inf, 0.0)"),
    ("json", '{"nodes": [{"id": null, "x": 0, "y": 0}, {"id": "b", "x": "s", "y": 0}]}',
     "malformed node-set data: entry 0: node id must be a string or an integer, got None"),
    ("json", '{"nodes": [{"id": "a", "x": Infinity, "y": 0}]}',
     "malformed node-set data: entry 0: non-finite coordinates: (inf, 0.0)"),
    ("json", '{"nodes": []}', "a node set needs at least one node"),
    ("json", '{"nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "y": 0}]}',
     "malformed node-set data: entry 1: 'x'"),
    ("csv", "id,x,y\na,0,0\nb,1_000,0\n",
     "malformed CSV node row ['b', '1_000', '0']: could not convert string to float: '1_000'"),
    # "nodes" that is not a list has no entries to name
    ("json", '{"nodes": {"a": 1}}', 'malformed node-set data: "nodes" must be a list'),
    ("json", '{"nodes": "ab"}', 'malformed node-set data: "nodes" must be a list'),
    ("json", '{"nodes": null}', 'malformed node-set data: "nodes" must be a list'),
]


@pytest.mark.parametrize("fmt, text, message", INPUT_FAULTS)
def test_input_faults_exit_2_with_one_error_line(tmp_path, capsys, fmt, text, message):
    p = tmp_path / f"bad.{fmt}"
    p.write_text(text)
    code, out, err = run(capsys, "check", "--input", str(p), "--format", fmt,
                         "--family", "yao", "--k", "6")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, fmt):
    text = (node_set_to_csv if fmt == "csv" else node_set_to_json)(random_nodeset(12, seed=5))
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    argv = ("build", "--format", fmt, "--family", "yao", "--k", "6")
    code, want, _ = run(capsys, *argv, "--input", str(plain))
    assert code == 0 and len(json.loads(want)["nodes"]) == 12
    assert run(capsys, *argv, "--input", str(marked)) == (0, want, "")
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
    assert run(capsys, *argv) == (0, want, "")


def test_build_duplicate_coordinates_exits_2(tmp_path, capsys):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({"nodes": [
        {"id": "a", "x": 1.0, "y": 1.0}, {"id": "b", "x": 1.0, "y": 1.0},
    ]}))
    code, _, err = run(capsys, "build", "--input", str(p), "--family", "yao", "--k", "2")
    assert code == 2
    assert "duplicate" in err


def test_build_reads_csv_and_stdin(tmp_path, capsys, monkeypatch):
    ns = random_nodeset(8, seed=3)
    csv_text = node_set_to_csv(ns)
    monkeypatch.setattr("sys.stdin", io.StringIO(csv_text))
    code, out, _ = run(capsys, "build", "--format", "csv", "--family", "yao", "--k", "4")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 8


def test_build_directed_flag(corpus_files, capsys):
    code, out, _ = run(
        capsys, "build", "--input", corpus_files["V0"], "--family", "yao", "--k", "1",
        "--directed",
    )
    assert code == 0
    data = json.loads(out)
    assert data["directed"] is True
    assert len(data["edges"]) == 4  # one out-edge per node


def test_build_theta_small_k_warns_on_stderr(corpus_files, capsys):
    code, _, err = run(
        capsys, "build", "--input", corpus_files["V0"], "--family", "theta", "--k", "2"
    )
    assert code == 0
    assert "warning:" in err


# ---------------------------------------------------------------------------
# check


def test_check_v2_yao5_reports_witness_and_exits_1(corpus_files, capsys):
    code, out, _ = run(
        capsys, "check", "--input", corpus_files["V2"], "--family", "yao", "--k", "5"
    )
    assert code == 1
    report = json.loads(out)
    assert report["void_free"] is False
    assert any(w["u"] == "u" and w["v"] == "v" for w in report["witnesses"])


def test_check_v1_theta_k4_exits_1(corpus_files, capsys):
    code, out, _ = run(
        capsys, "check", "--input", corpus_files["V1"], "--family", "theta", "--k", "4"
    )
    assert code == 1
    assert any(w["u"] == "u" and w["v"] == "v" for w in json.loads(out)["witnesses"])


def test_check_random_50_yao6_void_free_exits_0(tmp_path, capsys):
    p = tmp_path / "r50.json"
    p.write_text(node_set_to_json(random_nodeset(50, seed=6)))
    code, out, _ = run(capsys, "check", "--input", str(p), "--family", "yao", "--k", "6")
    assert code == 0
    report = json.loads(out)
    assert report["void_free"] is True and report["witnesses"] == []


# ---------------------------------------------------------------------------
# route


def test_route_v0_k2_stuck_at_u(corpus_files, capsys):
    code, out, _ = run(
        capsys, "route", "--input", corpus_files["V0"], "--family", "yao", "--k", "2",
        "--from", "u", "--to", "v",
    )
    assert code == 1
    data = json.loads(out)
    assert data["delivered"] is False
    assert data["stuck"] == "u"


def test_route_to_self_delivers(corpus_files, capsys):
    code, out, _ = run(
        capsys, "route", "--input", corpus_files["V0"], "--family", "yao", "--k", "2",
        "--from", "v", "--to", "v",
    )
    assert code == 0
    assert json.loads(out) == {"delivered": True, "path": ["v"]}


def test_route_random_void_free_pairs_deliver(tmp_path, capsys):
    import random

    ns = random_nodeset(30, seed=7)
    p = tmp_path / "r30.json"
    p.write_text(node_set_to_json(ns))
    rng = random.Random(99)
    for _ in range(50):
        s, t = rng.sample(range(30), 2)
        code, out, _ = run(
            capsys, "route", "--input", str(p), "--family", "yao", "--k", "7",
            "--from", f"p{s}", "--to", f"p{t}",
        )
        assert code == 0
        data = json.loads(out)
        assert data["path"][0] == f"p{s}" and data["path"][-1] == f"p{t}"


def test_route_unknown_node_exits_2(corpus_files, capsys):
    code, _, err = run(
        capsys, "route", "--input", corpus_files["V0"], "--family", "yao", "--k", "2",
        "--from", "u", "--to", "zzz",
    )
    assert code == 2
    assert "unknown node" in err


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


# the squares of these offsets overflow, so d(a, c) is +inf in doubles
@pytest.mark.parametrize("command", [
    ["check"],
    ["route", "--from", "a", "--to", "c"],
    ["render", "--highlight-pair", "a", "c"],
])
def test_out_of_range_distance_prints_no_non_json_number(tmp_path, capsys, command):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"nodes": [
        {"id": "a", "x": 0.0, "y": 0.0}, {"id": "b", "x": 1e200, "y": 0.0},
        {"id": "c", "x": 3e200, "y": 0.0}, {"id": "d", "x": 0.0, "y": 1e200},
    ]}))
    svg = tmp_path / "huge.svg"
    if command[0] == "render":
        command = [*command, "--out", str(svg)]
    code, out, err = run(capsys, *command, "--input", str(p), "--family", "theta", "--k", "6")
    # an input error with nothing on stdout, or JSON without Infinity or NaN;
    # render has no JSON to print, so it must exit 2 and write no figure
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        json.loads(out, parse_constant=reject_constant)
    assert not svg.exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64",
    "",
])
def test_memory_error_exits_2_without_traceback(corpus_files, capsys, monkeypatch, message):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "greedy_route", exhausted)
    code, out, err = run(
        capsys, "route", "--input", corpus_files["V0"], "--family", "yao", "--k", "6",
        "--from", "u", "--to", "v",
    )
    assert code == 2 and out == ""
    assert err == f"error: {message or 'out of memory'}\n"


# ---------------------------------------------------------------------------
# search


def test_search_finds_and_prints_node_set(capsys):
    code, out, err = run(
        capsys, "search", "--family", "yao", "--k", "1", "--nodes", "4",
        "--seed", "5", "--budget", "5000",
    )
    assert code == 0
    assert "found" in err
    data = json.loads(out)
    assert len(data["nodes"]) == 4


def test_search_not_found_exits_1(capsys):
    code, out, err = run(
        capsys, "search", "--family", "yao", "--k", "5", "--seed", "1", "--budget", "3"
    )
    assert code == 1
    assert out == ""
    assert "no counterexample" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_search_nonpositive_budget_exits_2(capsys, budget):
    code, out, err = run(
        capsys, "search", "--family", "yao", "--k", "1", "--budget", budget
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("flag", ["--k", "--nodes", "--budget"])
def test_search_non_integer_argument_exits_2(capsys, flag):
    args = {"--k": "1", "--nodes": "4", "--budget": "5"}
    args[flag] = "2.5"
    # argparse rejects the value before search_counterexample sees it
    with pytest.raises(SystemExit) as exc:
        main(["search", "--family", "yao", *(a for kv in args.items() for a in kv)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_search_k6_rejected(capsys):
    code, _, err = run(capsys, "search", "--family", "yao", "--k", "6")
    assert code == 2
    assert "theorem guarantees no counterexample" in err


def test_cone_count_beyond_the_double_range_exits_2(corpus_files, capsys):
    code, out, err = run(capsys, "check", "--input", corpus_files["V0"], "--family", "yao",
                         "--k", "1" + "0" * 400)
    assert code == 2 and out == ""
    assert err == "error: cone count is beyond the double range\n"


# ---------------------------------------------------------------------------
# render


def test_render_writes_svg_with_highlight(corpus_files, tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, "render", "--input", corpus_files["V2"], "--family", "yao", "--k", "5",
        "--out", str(out_path), "--highlight-pair", "u", "v",
    )
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('class="node"') == 6
    assert svg.count('class="aux-circle"') == 1


def test_render_unwritable_output_exits_2(corpus_files, tmp_path, capsys):
    out_path = tmp_path / "missing-dir" / "x.svg"
    code, out, err = run(
        capsys, "render", "--input", corpus_files["V2"], "--family", "yao", "--k", "5",
        "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err == (f"error: cannot write {out_path}: "
                   f"[Errno 2] No such file or directory: {str(out_path)!r}\n")
    assert not out_path.parent.exists()


# ---------------------------------------------------------------------------
# determinism


def test_outputs_byte_identical_across_runs(corpus_files, tmp_path, capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "build", "--input", corpus_files["V1"], "--family", "theta", "--k", "4"
        )
        runs.append(out)
    assert runs[0] == runs[1]

    checks = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "check", "--input", corpus_files["V1"], "--family", "yao", "--k", "4"
        )
        checks.append(out)
    assert checks[0] == checks[1]

    svgs = []
    for i in range(2):
        out_path = tmp_path / f"render-{i}.svg"
        run(
            capsys, "render", "--input", corpus_files["V0"], "--family", "yao",
            "--k", "3", "--out", str(out_path), "--highlight-pair", "u", "v",
        )
        svgs.append(out_path.read_bytes())
    assert svgs[0] == svgs[1]


def test_one_parser_serves_calls_in_a_row(corpus_files, tmp_path, capsys):
    # main reuses one cached parser; a check, a render and a usage error in
    # a row give the exit codes, stdout and figure of calls on a freshly
    # built one
    svg = tmp_path / "fig.svg"
    calls = [
        ["check", "--input", corpus_files["V2"], "--family", "yao", "--k", "5"],
        ["render", "--input", corpus_files["V2"], "--family", "yao", "--k", "5",
         "--out", str(svg), "--highlight-pair", "u", "v"],
        ["check", "--family", "yao"],
    ]

    def call(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        svg.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out, svg.read_bytes() if svg.exists() else None

    in_a_row = [call(argv, fresh=False) for argv in calls]
    assert [code for code, _, _ in in_a_row] == [1, 0, 2]
    assert in_a_row == [call(argv, fresh=True) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
