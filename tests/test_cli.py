"""Harness behaviour: subcommand output, exit codes, output stability."""

from __future__ import annotations

import json
import shlex

import pytest

import relgraph.cli as cli
from relgraph import parse_graph

from conftest import ROOT, readme_commands


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    assert cli.main(["gen", "complete", "5", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    assert cli.main(["gen", "cycle", "5", "-o", str(path)]) == 0
    return str(path)


class TestGen:
    def test_complete_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 20

    def test_cycleseq_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "cycleseq", "5", "3", "-o", str(path))
        assert code == 0
        g = parse_graph(path.read_text())
        assert g.n == 20 and len(g.arcs) == 60

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "gen", "grid", "2", "3")
        assert code == 0
        assert parse_graph(out).n == 6

    def test_bad_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "complete")
        assert code == 1
        assert "usage error" in err

    def test_bad_size_is_refusal(self, capsys):
        code, _, _ = run(capsys, "gen", "complete", "1")
        assert code == 2

    def test_arc_cap_refuses_before_building(self, capsys, tmp_path):
        # K1001 has 1,001,000 arcs, one family member past the 1,000,000 cap
        path = tmp_path / "k1001.txt"
        code, out, err = run(capsys, "gen", "complete", "1001", "-o", str(path))
        assert code == 2
        assert out == ""
        assert "--force" in err
        assert not path.exists()

    def test_force_lifts_arc_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_GEN_ARC_CAP", 19)
        code, out, err = run(capsys, "gen", "complete", "5")
        assert (code, out) == (2, "")
        assert "20 arcs" in err
        code, out, _ = run(capsys, "gen", "complete", "5", "--force")
        assert code == 0
        assert len(out.splitlines()) == 20

    @pytest.mark.parametrize(
        "family, params",
        [("complete", (7,)), ("cycle", (9,)), ("path", (6,)), ("grid", (3, 5)),
         ("grid", (1, 4)), ("cycleseq", (4, 5)), ("dodecahedron", ())],
    )
    def test_arc_count_matches_generator(self, family, params):
        _, arc_count, make = cli._GEN_FAMILIES[family]
        assert arc_count(*params) == len(make(*params).arcs)


class TestTraverse:
    def test_k5_row(self, capsys, k5_file):
        code, out, _ = run(capsys, "traverse", k5_file, "--start", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split("\t") == ["label", "loop_count", "breadth", "ratio", "hp", "hc"]
        fields = row.split("\t")
        assert fields[1:4] == ["65", "24", "2.708333333"]

    def test_json_document(self, capsys, k5_file):
        code, out, _ = run(capsys, "traverse", k5_file, "--start", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "traverse"
        assert doc["params"]["start"] == 1
        assert doc["rows"][0]["loop_count"] == 65

    def test_byte_stable(self, capsys, k5_file):
        _, first, _ = run(capsys, "traverse", k5_file, "--start", "1")
        _, second, _ = run(capsys, "traverse", k5_file, "--start", "1")
        assert first == second

    def test_times_flag_adds_column(self, capsys, k5_file):
        code, out, _ = run(capsys, "traverse", k5_file, "--start", "1", "--times")
        assert code == 0
        assert out.splitlines()[0].endswith("time_s")

    def test_missing_start_is_refusal(self, capsys, k5_file):
        code, _, _ = run(capsys, "traverse", k5_file, "--start", "99")
        assert code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_refusal(self, capsys, k5_file, threads):
        code, out, err = run(capsys, "traverse", k5_file, "--start", "1", "--threads", threads)
        assert code == 2
        assert out == ""
        assert "threads" in err


class TestEuler:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "euler", "--max", "5")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["2.500000000", "2.666666667", "2.708333333"]

    def test_range_refusals(self, capsys):
        assert run(capsys, "euler", "--max", "2")[0] == 2
        assert run(capsys, "euler", "--max", "13")[0] == 2


class TestInvariant:
    def test_cycle_passes(self, capsys, c5_file):
        code, out, _ = run(capsys, "invariant", c5_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "PASS"
        assert all(line.endswith("\t2") for line in lines[1:-1])

    def test_json_document_carries_verdict(self, capsys, c5_file):
        code, out, _ = run(capsys, "invariant", c5_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["command"], doc["verdict"]) == ("invariant", "PASS")
        assert doc["rows"] == [{"hc": 2, "start": s} for s in range(1, 6)]

    def test_directed_instance_refused(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        cli.main(["gen", "path", "3", "-o", str(path)])
        assert run(capsys, "invariant", str(path))[0] == 2

    def test_internal_violation_exit_code(self, capsys, c5_file, monkeypatch):
        monkeypatch.setattr(cli, "traversal_invariant", lambda g: {1: 2, 2: 3})
        code, _, err = run(capsys, "invariant", c5_file)
        assert code == 3
        assert "invariant" in err


class TestPartitionCmd:
    def test_cycle_regions(self, capsys, tmp_path):
        path = tmp_path / "c6.txt"
        cli.main(["gen", "cycle", "6", "-o", str(path)])
        code, out, _ = run(capsys, "partition", str(path), "--seeds", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert row == ["4", "1,2,2,1", "0"]

    def test_bad_seed_list(self, capsys, c5_file):
        assert run(capsys, "partition", c5_file, "--seeds", "1,x")[0] == 1


class TestBocpsCmd:
    def test_row(self, capsys):
        code, out, _ = run(capsys, "bocps", "4", "6")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t") == ["2", "3", "2", "12", "5"]

    def test_refusal(self, capsys):
        assert run(capsys, "bocps", "0", "6")[0] == 2

    def test_step_cap_refuses(self, capsys):
        # (1, 10^9) needs 10^9 + 1 cursor steps, minutes of scalar loop
        code, out, err = run(capsys, "bocps", "1", "1000000000")
        assert (code, out) == (2, "")
        assert "1000000001 cursor steps" in err
        assert "--force" in err

    def test_large_gcd_runs_under_cap(self, capsys):
        code, out, _ = run(capsys, "bocps", "1000000000", "2000000000")
        assert code == 0
        assert out.splitlines()[1].split("\t") == ["1", "2", "1000000000", "2000000000", "3"]

    def test_force_lifts_step_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_BOCPS_STEP_CAP", 4)
        code, out, err = run(capsys, "bocps", "4", "6")
        assert (code, out) == (2, "")
        assert "5 cursor steps" in err
        code, out, _ = run(capsys, "bocps", "4", "6", "--force")
        assert code == 0
        assert out.splitlines()[1].split("\t") == ["2", "3", "2", "12", "5"]


class TestColorCmd:
    def test_trials_table(self, capsys, tmp_path):
        path = tmp_path / "c6.txt"
        cli.main(["gen", "cycle", "6", "-o", str(path)])
        code, out, _ = run(capsys, "color", str(path), "--algo", "bogpc", "--trials", "20", "--seed", "5")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t") == ["2", "20", "1.000"]

    def test_seeded_stability(self, capsys, c5_file):
        args = ("color", c5_file, "--algo", "boerc", "--trials", "30", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_exact_summary(self, capsys, c5_file):
        code, out, _ = run(capsys, "chromatic", c5_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "chromatic"
        assert doc["params"]["bound"] == 3
        assert doc["params"]["chromatic"] == 3
        # the TSV ends with the same two numbers
        assert run(capsys, "chromatic", c5_file)[1] == "classes\tlayouts\n2\t5\nbound\t3\nchromatic\t3\n"

    def test_exact_size_refusal(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        cli.main(["gen", "cycleseq", "9", "3", "-o", str(path)])
        assert run(capsys, "chromatic", str(path))[0] == 2

    def test_exact_default_cap_refuses_dodecahedron(self, capsys, tmp_path):
        # n = 20 is past the default cap of 12, so the refusal comes before any enumeration
        path = tmp_path / "dodeca.txt"
        cli.main(["gen", "cycleseq", "5", "3", "-o", str(path)])
        code, out, err = run(capsys, "chromatic", str(path))
        assert code == 2
        assert out == ""
        assert "n <= 12" in err

    def test_force_lifts_exact_cap(self, capsys, tmp_path):
        # K13 has a single layout, so lifting the cap costs nothing
        path = tmp_path / "k13.txt"
        cli.main(["gen", "complete", "13", "-o", str(path)])
        code, out, err = run(capsys, "chromatic", str(path))
        assert code == 2
        assert out == ""
        assert "--force" in err
        code, out, _ = run(capsys, "chromatic", str(path), "--json", "--force")
        assert code == 0
        params = json.loads(out)["params"]
        assert (params["bound"], params["chromatic"]) == (13, 13)

    def test_depth_limit_refuses_even_with_force(self, capsys, tmp_path):
        # a 1100-vertex path would overflow the recursion: a refusal, not a traceback
        path = tmp_path / "p1100.txt"
        cli.main(["gen", "path", "1100", "-o", str(path)])
        code, out, err = run(capsys, "chromatic", str(path), "--force")
        assert code == 2
        assert out == ""
        assert "recurses once per vertex" in err and "--force cannot lift this" in err

    def test_trials_arc_cap_refuses_before_running(self, capsys, c5_file):
        # C5 has 10 arcs, so 100,001 trials pass the 1,000,000 cap by 10
        code, out, err = run(capsys, "color", c5_file, "--trials", "100001")
        assert (code, out) == (2, "")
        assert "100001 trials on 10 arcs" in err
        assert "--force" in err

    def test_force_lifts_trials_arc_cap(self, capsys, c5_file, monkeypatch):
        monkeypatch.setattr(cli, "_TRIAL_ARC_CAP", 49)
        code, out, err = run(capsys, "color", c5_file, "--trials", "5")
        assert (code, out) == (2, "")
        assert "--force" in err
        code, out, _ = run(capsys, "color", c5_file, "--trials", "5", "--force")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert sum(int(count) for _, count, _ in rows) == 5

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_refusal(self, capsys, c5_file, trials):
        code, out, err = run(capsys, "color", c5_file, "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials" in err


class TestSequencesCmd:
    def test_validators(self, capsys):
        assert run(capsys, "sequences", "cycle", "--arcs", "1-2,2-1")[1].strip() == "1"
        assert run(capsys, "sequences", "trail", "--arcs", "1-2")[1].strip() == "0"
        assert run(capsys, "sequences", "path", "--arcs", "1-2")[1].strip() == "1"
        assert run(capsys, "sequences", "medium", "--arcs", "1-2,2-3,3-4")[1].strip() == "2,3"

    def test_chains(self, capsys):
        code, out, _ = run(capsys, "sequences", "chains", "--arcs", "1-2,2-1")
        assert code == 0
        assert out.strip().splitlines() == ["1-2", "2-1"]

    def test_minpower(self, capsys):
        assert run(capsys, "minpower", "6", "2")[1].strip() == "3"

    def test_usage_errors(self, capsys):
        assert run(capsys, "minpower", "6")[0] == 1
        assert run(capsys, "sequences", "cycle")[0] == 1
        assert run(capsys, "sequences", "cycle", "--arcs", "nope")[0] == 1
        # an id below 1 is the library's refusal, reported as a bad --arcs value
        code, out, err = run(capsys, "sequences", "path", "--arcs", "0-1")
        assert (code, out) == (1, "")
        assert err == "usage error: argument --arcs: vertex ids must be positive, got arc (0, 1)\n"


class TestClassifyCmd:
    def test_simple(self, capsys, c5_file):
        assert run(capsys, "classify", c5_file)[1].strip() == "Simple"

    def test_undirected_flag(self, capsys, tmp_path):
        path = tmp_path / "half.txt"
        path.write_text("1 2\n2 3\n")
        assert run(capsys, "classify", str(path))[1].strip() == "Directed"
        assert run(capsys, "classify", str(path), "--undirected")[1].strip() == "Simple"

    def test_missing_file_is_refusal(self, capsys, tmp_path):
        code, _, _ = run(capsys, "classify", str(tmp_path / "absent.txt"))
        assert code == 2

    def test_non_utf8_file_is_refusal(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 2\n\xff 3\n")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: not UTF-8 text\n"

    def test_json_document(self, capsys, c5_file):
        code, out, _ = run(capsys, "classify", c5_file, "--json")
        assert code == 0
        assert out == json.dumps(
            {"command": "classify", "params": {"file": c5_file}, "rows": [{"class": "Simple"}]},
            sort_keys=True,
        ) + "\n"

    def test_utf8_bom_file_classifies(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"1 2\n2 1\n")
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf1 2\n2 1\n")
        assert run(capsys, "classify", str(bom)) == run(capsys, "classify", str(plain))


# the flags each subcommand reads; every other (subcommand, flag) pair is refused
ACCEPTED = {
    "gen": {"--force"},
    "classify": {"--json", "--undirected"},
    "invariant": {"--json", "--undirected"},
    "partition": {"--json", "--undirected"},
    "traverse": {"--json", "--threads", "--undirected", "--times"},
    "euler": {"--json", "--threads", "--force", "--times"},
    "bocps": {"--json", "--force"},
    "color": {"--json", "--seed", "--undirected", "--force"},
    "chromatic": {"--json", "--undirected", "--force"},
    "minpower": set(),
    "sequences": set(),
}
BASE_ARGV = {
    "gen": ["gen", "complete", "5"],
    "classify": ["classify", "g.txt"],
    "invariant": ["invariant", "g.txt"],
    "partition": ["partition", "g.txt", "--seeds", "1"],
    "traverse": ["traverse", "g.txt", "--start", "1"],
    "euler": ["euler", "--max", "4"],
    "bocps": ["bocps", "4", "6"],
    "color": ["color", "g.txt"],
    "chromatic": ["chromatic", "g.txt"],
    "minpower": ["minpower", "6", "2"],
    "sequences": ["sequences", "cycle", "--arcs", "1-2,2-1"],
}
FLAG_ARGV = {
    "--json": ["--json"],
    "--seed": ["--seed", "5"],
    "--threads": ["--threads", "3"],
    "--undirected": ["--undirected"],
    "--force": ["--force"],
    "--times": ["--times"],
}
REFUSED = [
    pytest.param(BASE_ARGV[cmd] + FLAG_ARGV[flag], id=f"{cmd} {flag}")
    for cmd in ACCEPTED
    for flag in FLAG_ARGV
    if flag not in ACCEPTED[cmd]
] + [
    pytest.param(["invariant", "g.txt", "--threads", "0"], id="invariant --threads 0"),
    pytest.param(["--json", "classify", "g.txt"], id="--json before classify"),
    pytest.param(["--force", "gen", "complete", "5"], id="--force before gen"),
    pytest.param(["--seed", "5", "--threads", "3", "bocps", "4", "6"], id="--seed --threads before bocps"),
    # arguments a subcommand does not declare
    pytest.param(["chromatic", "g.txt", "--trials", "500"], id="chromatic --trials"),
    pytest.param(["chromatic", "g.txt", "--algo", "boerc"], id="chromatic --algo"),
    pytest.param(["minpower", "6", "2", "--arcs", "1-2"], id="minpower --arcs"),
    pytest.param(["sequences", "trail", "3", "4", "--arcs", "1-2,2-3"], id="sequences trail numbers"),
    # removed options and subcommand modes
    pytest.param(["traverse", "g.txt", "--start", "1", "--algo", "bots"], id="traverse --algo bots"),
    pytest.param(["bocps", "100", "3", "--half-cap"], id="bocps --half-cap"),
    pytest.param(["color", "g.txt", "--exact"], id="color --exact"),
    # every other flag here is legal on color, so only --exact can fail it
    pytest.param(["color", "g.txt", "--exact", "--trials", "500", "--algo", "boerc", "--seed", "3"],
                 id="color --exact with every trial flag"),
    pytest.param(["sequences", "minpower", "6", "2"], id="sequences minpower"),
]


class TestFlagScope:
    @pytest.mark.parametrize("argv", REFUSED)
    def test_unread_flag_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "cmd, flag", [(cmd, flag) for cmd in ACCEPTED for flag in sorted(ACCEPTED[cmd])]
    )
    def test_read_flag_parses(self, cmd, flag):
        args = cli._build_parser().parse_args(BASE_ARGV[cmd] + FLAG_ARGV[flag])
        assert getattr(args, flag[2:]) == {"--seed": 5, "--threads": 3}.get(flag, True)

    def test_readme_table_matches_accepted(self):
        # the README's `| subcommand | flags |` table lists exactly ACCEPTED
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for line in table.splitlines():
            commands, flags = (cell.strip() for cell in line.strip("|").split("|"))
            for command in commands.split(", "):
                listed[command.strip("`")] = (
                    set() if flags == "none" else {flag.strip("`") for flag in flags.split(", ")}
                )
        assert listed == ACCEPTED

    def test_readme_commands_parse(self):
        # every relgraph line of the README's command-line block parses as written
        commands = readme_commands()
        assert len(commands) >= 12
        parser = cli._build_parser()
        for command in commands:
            argv = shlex.split(command)
            assert argv[0] == "relgraph", command
            parser.parse_args(argv[1:])
