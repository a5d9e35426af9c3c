"""The CLI transcript: exit code, stdout and stderr of fixed argvs, byte for byte.

``golden/cli.txt`` holds one record per argv: the ``$ relgraph ...`` line,
``exit N``, then stdout lines prefixed ``> `` and stderr lines prefixed
``! ``.  The test replays every record in order, in-process through
``cli.main``, in a fresh directory, so the instances that ``gen`` writes
there are read back under the same relative names.

The argvs are every ``relgraph`` line of the README's command block, the
JSON reports of ``euler``, ``invariant`` and ``traverse`` on the
dodecahedron and ``cycleseq 7 3``, ``chromatic`` on the 9-cycle as TSV and
JSON (a three-row layout table), and one refusal for each of exit 1 (usage)
and exit 2 (domain or size).  No argv reaches exit 3, which takes a
broken internal invariant.

Run ``python tests/test_cli_transcript.py`` to rewrite the file after a
deliberate output change; plain pytest runs only compare.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import shlex
import sys
import tempfile

import relgraph.cli as cli

from conftest import readme_commands

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.txt"

EXTRA = [
    "relgraph euler --max 9 --json",
    "relgraph invariant d.txt --json",
    "relgraph traverse d.txt --start 1 --json",
    "relgraph gen cycleseq 7 3 -o c73.txt",
    "relgraph traverse c73.txt --start 1 --json",
    "relgraph gen cycle 9 -o c9.txt",
    "relgraph chromatic c9.txt",  # the one golden layout table with more than one row
    "relgraph chromatic c9.txt --json",
    "relgraph bocps 4 6 --seed 5",  # exit 1: bocps reads no --seed
    "relgraph bocps 0 6",  # exit 2: domain refusal
    "relgraph gen complete 1001 -o f",  # exit 2: 1,001,000 arcs pass the cap
]


def replay(command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``relgraph`` command line, run in-process."""
    argv = shlex.split(command)
    assert argv[0] == "relgraph", command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[1:])
    return code, out.getvalue(), err.getvalue()


def read_golden() -> list[list]:
    """The recorded [command, exit code, stdout, stderr] records, in order."""
    records: list[list] = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "$":
            records.append([rest, None, "", ""])
        elif tag == "exit":
            records[-1][1] = int(rest)
        elif tag == ">":
            records[-1][2] += rest + "\n"
        elif tag == "!":
            records[-1][3] += rest + "\n"
    return records


def format_record(command: str, code: int, out: str, err: str) -> str:
    # every output ends in a newline, so prefixing each line keeps it exact
    assert out.endswith("\n") or not out, command
    assert err.endswith("\n") or not err, command
    lines = [f"$ {command}", f"exit {code}"]
    lines += ["> " + line for line in out.splitlines()]
    lines += ["! " + line for line in err.splitlines()]
    return "\n".join(lines) + "\n"


def test_transcript_replays_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = read_golden()
    assert [command for command, *_ in records] == readme_commands() + EXTRA
    for command, *expected in records:
        assert replay(command) == tuple(expected), command


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        text = "\n".join(format_record(c, *replay(c)) for c in readme_commands() + EXTRA)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
