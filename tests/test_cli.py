import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from llschain import VanishingTable, g22_example
from llschain.cli import main
from llschain.render import (
    multidegree_header,
    render_multidegree_ascii,
    render_table_latex,
    render_tensor_latex,
)
from llschain.multidegree import default_multidegree

G22_HEADER_START = ["", "3", "5", "7", "9", "12", "14"]


def test_cli_count(capsys):
    assert main(["count", "--g", "21", "--d", "24", "--rho-max", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1385670"


def test_cli_enumerate_limit(capsys):
    assert main(["enumerate", "--g", "6", "--r", "1", "--d", "4", "--limit", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    obj = json.loads(lines[0])
    assert obj["r"] == 1 and obj["d"] == 4


def test_cli_oracle(capsys):
    assert main(["oracle", "--g", "4", "--r", "1", "--d", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    # the same families count rejects: rho = -2, and rho_max above rho = 0
    assert main(["oracle", "--g", "4", "--r", "1", "--d", "2"]) == 2
    assert main(["oracle", "--g", "6", "--r", "1", "--d", "4", "--rho-max", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_inspect_example(capsys):
    assert main(["inspect", "--example"]) == 0
    out = capsys.readouterr().out
    assert "column 9, rows (2, 3), minimal" in out
    assert "class single" in out
    assert "total 1" in out


def test_cli_default_md_example(capsys):
    assert main(["default-md", "--example"]) == 0
    out = capsys.readouterr().out
    assert "c = 3,5,7,9,12,14,17,19,21,23,25,27,29,31,33,36,38,41,43,45,47" \
        in out.replace("c =", "c =").replace(" ", "").replace("c=", "c = ")


def test_cli_drop_trace(capsys):
    assert main(["drop", "--example", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "dropped all 29 sections" in out
    assert '"rule": "iii"' in out


def test_cli_drop_rejects_multidegree_that_is_not_unimaginative(capsys):
    # degrees 4 and 1 on columns 1 and 2; render still shows its sections
    w = ('{"D":50,"c":[4,5,7,9,12,14,17,19,21,23,25,27,29,31,33,36,38,41,43,'
         '45,47]}')
    assert main(["drop", "--example", "--w", w]) == 2
    captured = capsys.readouterr()
    assert "unimaginative" in captured.err and not captured.out
    assert main(["render", "--example", "--tensor", "--w", w]) == 0
    assert "[" in capsys.readouterr().out


def test_cli_drop_stuck_exits_one(capsys):
    # 3s at columns 17-22: the greedy, and so every rule order, leaves nine
    # sections of columns 17-19
    w = ('{"D":50,"c":[2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,35,38,41,'
         '44,47]}')
    assert main(["drop", "--example", "--w", w]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "stuck with 9 sections:",
        "  row (2, 2) columns 18..19",
        "  row (1, 4) columns 17..17",
        "  row (2, 3) columns 17..18",
        "  row (0, 6) columns 17..18",
        "  row (1, 5) columns 17..18",
        "  row (2, 4) columns 19..19",
        "  row (1, 6) columns 18..19",
        "  row (3, 4) columns 18..18",
        "  row (3, 5) columns 18..19",
    ]


def test_cli_render_latex(capsys):
    assert main(["render", "--example", "--format", "latex", "--tensor"]) == 0
    out = capsys.readouterr().out
    assert "\\cellcolor[gray]{.8}" in out
    assert "\\begin{tabular}" in out


def test_cli_verify_small(capsys, tmp_path):
    code = main([
        "verify", "--g", "21", "--d", "24", "--rho-max", "0",
        "--limit", "25", "--out", str(tmp_path / "v.jsonl"),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0
    assert report["verified"] == 25


@pytest.mark.parametrize("run", [
    (),
    ("--mode", "sampled", "--n", "40", "--seed", "2"),
], ids=["exhaustive", "sampled"])
def test_cli_enumerate_and_verify_cover_the_same_indices(tmp_path, run):
    family = ["--g", "21", "--d", "24", "--rho-max", "0", *run, "--limit", "25"]
    tables, verdicts = tmp_path / "t.jsonl", tmp_path / "v.jsonl"
    assert main(["enumerate", *family, "--out", str(tables)]) == 0
    assert main(["verify", *family, "--out", str(verdicts)]) == 0
    enumerated = [VanishingTable.from_json(json.loads(line)).hash
                  for line in tables.read_text().splitlines()]
    verified = [json.loads(line) for line in verdicts.read_text().splitlines()]
    assert len(enumerated) == 25
    assert enumerated == [v["table"] for v in verified]
    if run:   # a sample, not the start of the range
        assert [v["index"] for v in verified] != list(range(25))


def _verify_cmd(tmp_path, name, jobs, *run):
    """The one command every run of ``name`` repeats: the rho-0 tables of
    (21,6,24) picked by the run flags ``run``, by default the first 6,000."""
    return [sys.executable, "-m", "llschain.cli", "verify", "--g", "21",
            "--d", "24", "--rho-max", "0", *(run or ("--limit", "6000")),
            "--jobs", str(jobs), "--checkpoint", str(tmp_path / f"{name}.ck"),
            "--out", str(tmp_path / f"{name}.jsonl")]


def _kill_then_finish(cmd, rng, runs=3, span=0.0):
    """Start ``cmd`` ``runs`` times in its own session, SIGKILL its process
    group (pool workers included) at a seeded random moment within the first
    0.1 to 0.9 of ``span`` seconds, then run it to completion: (its report,
    the number of runs killed)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    kills = 0
    for _ in range(runs):
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            time.sleep(rng.uniform(0.1, 0.9) * span)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                kills += 1
            proc.wait()
    done = subprocess.run(cmd, env=env, capture_output=True, check=True)
    return json.loads(done.stdout), kills


def _assert_resumes_after_hard_kills(tmp_path, rng, run=(), tables=6000):
    # rerunning the identical command after each kill must write the
    # uninterrupted run's bytes and hash, for one job and for two.  The kills
    # fall within the wall time of one uninterrupted run on this host, so
    # that they stay inside the runs however fast the host or the verifier
    started = time.monotonic()
    ref, _ = _kill_then_finish(_verify_cmd(tmp_path, "ref", 1, *run), rng, runs=0)
    span = time.monotonic() - started
    expected = (tmp_path / "ref.jsonl").read_bytes()
    assert expected.count(b"\n") == ref["verified"] == tables
    kills = 0
    for jobs in (1, 2):
        name = f"killed{jobs}"
        report, killed = _kill_then_finish(_verify_cmd(tmp_path, name, jobs, *run),
                                           rng, span=span)
        kills += killed
        assert report["verified"] == tables and report["failed"] == 0
        assert report["stream_hash"] == ref["stream_hash"]
        assert (tmp_path / f"{name}.jsonl").read_bytes() == expected
    assert kills >= 2


def test_cli_verify_resumes_after_hard_kills(tmp_path):
    _assert_resumes_after_hard_kills(tmp_path, random.Random(20261019))


def test_cli_verify_sampled_resumes_after_hard_kills(tmp_path):
    # a sampled run's chunks are lists of indices, not ranges; the limit
    # cuts the sample, so the run stops short of its 6,000 draws
    run = ("--mode", "sampled", "--n", "6000", "--seed", "3", "--limit", "4000")
    _assert_resumes_after_hard_kills(tmp_path, random.Random(14), run, 4000)


def test_cli_verify_refuses_resume_without_out(capsys, tmp_path):
    # a run that wrote --out resumes only with --out: without it the stream
    # hash would cover lines that the file never gets
    ck, out = tmp_path / "ck", tmp_path / "a.jsonl"
    family = ["verify", "--g", "21", "--d", "24", "--rho-max", "0",
              "--checkpoint", str(ck)]
    assert main([*family, "--limit", "20", "--out", str(out)]) == 0
    capsys.readouterr()
    saved, written = ck.read_bytes(), out.read_bytes()
    assert main([*family, "--limit", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
    assert ck.read_bytes() == saved and out.read_bytes() == written
    assert main([*family, "--limit", "40", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["resumed_from"] == 20 and report["verified"] == 40
    assert out.read_bytes().count(b"\n") == 40


def test_cli_left_weighted(capsys):
    assert main(["left-weighted", "--g", "4", "--d", "25"]) == 0
    assert capsys.readouterr().out.strip() == "10100,100,1"


def test_cli_flag_errors(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["enumerate"])  # missing required flags
    assert main(["inspect"]) == 2  # no table given
    # malformed --w and --table JSON: a missing key or a wrong type
    assert main(["drop", "--example", "--w", '{"c": [1]}']) == 2
    assert main(["drop", "--example", "--w", "[1, 2]"]) == 2
    table = tmp_path / "t.json"
    table.write_text('{"r": 1}')
    assert main(["inspect", "--table", str(table)]) == 2
    # a negative limit is not a slice from the end
    assert main(["verify", "--g", "21", "--d", "24", "--rho-max", "0",
                 "--mode", "sampled", "--n", "6", "--seed", "1",
                 "--limit", "-4"]) == 2
    assert main(["enumerate", "--g", "6", "--r", "1", "--d", "4",
                 "--limit", "-1"]) == 2
    # verification is defined for r = 6 only, and needs at least one job;
    # both are refused before the family is counted or the output created
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--g", "6", "--r", "1", "--d", "4", "--limit", "2",
                 "--out", str(out)]) == 2
    for jobs in ("-3", "0"):
        assert main(["verify", "--g", "21", "--d", "24", "--rho-max", "0",
                     "--limit", "3", "--jobs", jobs, "--out", str(out)]) == 2
    # a negative sample size is refused before the count, with its own message
    assert main(["verify", "--g", "21", "--d", "24", "--rho-max", "0",
                 "--mode", "sampled", "--n", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be non-negative" in captured.err
    assert not out.exists()
    # a sample size outside sampled mode is refused, not ignored: the
    # exhaustive run would cover the whole family
    for cmd in ("verify", "enumerate"):
        assert main([cmd, "--g", "21", "--d", "24", "--rho-max", "0",
                     "--n", "5", "--limit", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err
        assert not out.exists()
    # a negative defect budget is refused, not counted as an empty family
    for cmd in ("count", "oracle"):
        assert main([cmd, "--g", "21", "--r", "6", "--d", "24",
                     "--rho-max", "-1"]) == 2
    assert main(["verify", "--g", "21", "--d", "24", "--rho-max", "-1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rho_max must be non-negative" in captured.err
    assert not out.exists()
    # enumerate checks its flags before it creates --out
    tables = tmp_path / "t.jsonl"
    for flags in (["--g", "6", "--r", "1", "--d", "4", "--mode", "sampled"],
                  ["--g", "5", "--r", "1", "--d", "2"],
                  ["--g", "6", "--r", "1", "--d", "4", "--mode", "sampled",
                   "--n", "-1"]):
        assert main(["enumerate", *flags, "--out", str(tables)]) == 2
    assert not tables.exists()
    assert capsys.readouterr().out == ""


def test_cli_inspect_rejects_empty_genera(capsys, tmp_path):
    # the first table of (6,1,4) inspects cleanly until its genera are emptied
    assert main(["enumerate", "--g", "6", "--r", "1", "--d", "4",
                 "--limit", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    table = tmp_path / "t.json"
    table.write_text(json.dumps(obj))
    assert main(["inspect", "--table", str(table)]) == 0
    capsys.readouterr()
    table.write_text(json.dumps(dict(obj, genera=[])))
    assert main(["inspect", "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "genera" in captured.err


def test_multidegree_header_matches_paper_layout():
    table = g22_example()
    w = default_multidegree(table)
    header = multidegree_header(w)
    # column 1 shows only the right twist 2d - c_2 = 47
    assert header[0] == ("", "47")
    assert header[1] == ("3", "45")
    assert header[2] == ("5", "43")
    assert header[-1] == ("47", "")
    text = render_multidegree_ascii(w)
    assert "47" in text and "12" in text


def test_render_table_latex_values():
    table = g22_example()
    tex = render_table_latex(table)
    first_row = tex.split("\n")[1]
    assert first_row.startswith("$0$ & $25$ & $0$ & $24$ & $1$ & $23$")


def test_render_tensor_highlights_sections():
    table = g22_example()
    w = default_multidegree(table)
    from llschain import build_tensor_table

    tex = render_tensor_latex(build_tensor_table(table), w)
    rows = [ln for ln in tex.split("\n") if ln.startswith("$(0,0)$")]
    assert len(rows) == 1
    # (0,0) is shaded exactly in its first column
    assert rows[0].count("\\cellcolor") == 2
