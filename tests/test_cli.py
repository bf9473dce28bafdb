import argparse
import subprocess
import sys

import pytest

from gmine import explore, mining
from gmine.cli import main, parse_size

from conftest import DEMO_EDGES, make_random_graph
from oracles import write_edge_list, write_labels


@pytest.fixture
def demo_paths(tmp_path):
    ep = str(tmp_path / "demo.edges")
    with open(ep, "w") as fh:
        fh.write("# demo graph\n")
        for u, v in DEMO_EDGES:
            fh.write("%d %d\n" % (u, v))
    return ep


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out.splitlines(), cap.err.splitlines()


def test_parse_size():
    assert parse_size("0") == 0
    assert parse_size("512") == 512
    assert parse_size("4K") == 4096
    assert parse_size("1.5M") == 1572864
    assert parse_size("2g") == 2 << 30
    for bad in ("x", "-1", "4Q", "inf", "1e400"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(bad)


def test_tc_demo(capsys, demo_paths):
    code, out, err = run_cli(capsys, ["tc", demo_paths])
    assert code == 0
    assert out == ["triangles\t3"]
    assert any(l.startswith("graph_vertices=5 graph_edges=7") for l in err)
    assert any(l.startswith("load_seconds=") for l in err)


def test_motif_demo(capsys, demo_paths):
    code, out, err = run_cli(capsys, ["motif", demo_paths, "-k", "3"])
    assert code == 0
    assert out == ["3;L=0,0,0;D=1,1,2;B=06\t5", "3;L=0,0,0;D=2,2,2;B=07\t3"]
    assert any(l == "level_3_embeddings=8" for l in err)


def test_clique_demo(capsys, demo_paths):
    code, out, _ = run_cli(capsys, ["clique", demo_paths, "-k", "3"])
    assert code == 0
    assert out == ["3-cliques\t3"]


def test_fsm_with_labels(capsys, tmp_path):
    g = make_random_graph(3100, 12, 8, n_labels=2)
    ep = str(tmp_path / "g.edges")
    lp = str(tmp_path / "g.labels")
    write_edge_list(g, ep)
    write_labels(g, lp)
    code, out, _ = run_cli(capsys, ["fsm", ep, "--labels", lp,
                                    "-k", "2", "--support", "3"])
    assert code == 0
    assert out and all("\t" in l for l in out)
    supports = {int(l.rsplit("\t", 1)[1]) for l in out}
    assert supports == {3}


def test_output_file_has_summary(capsys, tmp_path, demo_paths):
    op = str(tmp_path / "res.txt")
    code, out, _ = run_cli(capsys, ["motif", demo_paths, "-k", "3",
                                    "--output", op])
    assert code == 0
    body = open(op).read().splitlines()
    assert body[:-1] == out
    assert body[-1] == "# patterns=2 embeddings=8"


def test_unwritable_output_exit_1(capsys, tmp_path, demo_paths):
    op = str(tmp_path / "no" / "such" / "dir" / "res.txt")
    code, out, err = run_cli(capsys, ["tc", demo_paths, "--output", op])
    assert code == 1 and not out
    assert err == ["gmine: [Errno 2] No such file or directory: %r" % op]


def test_cli_deterministic_across_options(capsys, tmp_path):
    g = make_random_graph(3200, 40, 70)
    ep = str(tmp_path / "g.edges")
    write_edge_list(g, ep)
    runs = []
    for extra in ([], ["--workers", "2"],
                  ["--memory-budget", "40K", "--spill-dir",
                   str(tmp_path / "sp"), "--parts-per-level", "3"]):
        code, out, _ = run_cli(capsys, ["motif", ep, "-k", "4"] + extra)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def test_missing_file_exit_1(capsys, tmp_path, demo_paths):
    for argv in (["tc", str(tmp_path / "absent.edges")],
                 ["tc", demo_paths, "--labels", str(tmp_path / "absent.labels")]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and not out
        assert len(err) == 1 and err[0].startswith("gmine: cannot read %s:" % argv[-1])


def test_malformed_graph_exit_1(capsys, tmp_path):
    # one "gmine: path:line: ..." line and no traceback for each bad input
    ep = str(tmp_path / "bad.edges")
    lp = str(tmp_path / "bad.labels")
    for edge_text, label_text, expect in (
            ("1 2\n3\n", "", "bad.edges:2: expected two integers"),
            ("# ids\n1 -3\n", "", "bad.edges:2: negative vertex id -3"),
            ("1 2\n%d 1\n" % 2 ** 63, "", "bad.edges:2: vertex id %d out of range" % 2 ** 63),
            ("1 2\n", "1 -2\n", "bad.labels:1: negative label -2"),
            ("1 2\n", "1 0\n1 2147483648\n", "bad.labels:2: label 2147483648 out of range")):
        open(ep, "w").write(edge_text)
        open(lp, "w").write(label_text)
        code, out, err = run_cli(capsys, ["tc", ep, "--labels", lp])
        assert code == 1 and not out
        assert len(err) == 1 and err[0].startswith("gmine: ") and expect in err[0]


def test_budget_too_small_exit_1(capsys, demo_paths):
    code, out, err = run_cli(capsys, ["motif", demo_paths, "-k", "3",
                                      "--memory-budget", "1"])
    assert code == 1 and not out
    assert "budget" in err[0]


def test_bad_k_exit_1(capsys, demo_paths):
    code, _, err = run_cli(capsys, ["motif", demo_paths, "-k", "9"])
    assert code == 1
    assert "motif size" in err[0]


def test_bad_parts_per_level_exit_1(capsys, demo_paths):
    for bad in ("-1", "0"):
        code, out, err = run_cli(capsys, ["motif", demo_paths, "-k", "3",
                                          "--parts-per-level", bad])
        assert code == 1 and not out
        assert err[0].startswith("gmine: parts per level")


def test_bad_workers_exit_1(capsys, demo_paths):
    for bad in ("0", "-4"):
        code, out, err = run_cli(capsys, ["tc", demo_paths, "--workers", bad])
        assert code == 1 and not out
        assert err[0].startswith("gmine: workers must be at least 1")


def test_prediction_overflow_exit_1(capsys, demo_paths, monkeypatch):
    monkeypatch.setattr(explore, "PRED_MAX", 4)  # demo 2-embeddings sum two degrees
    code, out, err = run_cli(capsys, ["motif", demo_paths, "-k", "3"])
    assert code == 1 and not out
    assert err[0].startswith("gmine: a gather volume of")


def test_assertion_error_is_not_caught(demo_paths, monkeypatch):
    # a broken internal claim surfaces as a traceback, not as exit 1
    def broken(task, ctx):
        raise AssertionError("broken claim")

    monkeypatch.setattr(mining, "expand_vertex_range", broken)
    with pytest.raises(AssertionError, match="broken claim"):
        main(["tc", demo_paths])


def test_usage_error_exit_2(demo_paths):
    with pytest.raises(SystemExit) as ex:
        main(["motif", demo_paths])  # -k is required
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        main(["nonsense"])
    assert ex.value.code == 2


def test_console_entry_point(demo_paths):
    proc = subprocess.run([sys.executable, "-m", "gmine.cli", "tc", demo_paths],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "triangles\t3\n"
