"""Each demo script, and the README quickstart, runs to completion against
the package sources, and the README's CLI transcript is what the CLI prints."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from subtri.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"


def run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_prints_its_comments():
    # The quickstart imports only from the package root, so this also pins
    # what subtri re-exports.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:4] == ["2", "2.0", "True", "descent_exhausted"]


def readme_cli_transcript() -> list[tuple[str, str]]:
    """The README's CLI section as (command, the lines after it) pairs, in
    order: each "$ " line of its code blocks and what it printed."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in section.split("```\n")[1::2]:
        for step in ("\n" + block).split("\n$ ")[1:]:
            command, _, output = step.partition("\n")
            steps.append((command, output))
    return steps


def test_readme_cli_transcript_matches_main(tmp_path, monkeypatch, capsys):
    # The README's gen, exact, estimate --seed 1 and bench example, run in
    # process; `cat manifest.json` writes the manifest the bench reads.
    monkeypatch.chdir(tmp_path)
    steps = readme_cli_transcript()
    assert [shlex.split(command)[:2] for command, _ in steps] == [
        ["subtri", "gen"], ["subtri", "exact"], ["subtri", "estimate"],
        ["cat", "manifest.json"], ["subtri", "bench"],
    ]
    for command, output in steps:
        argv = shlex.split(command)
        if argv[0] == "cat":
            Path(argv[1]).write_text(output, encoding="utf-8")
            continue
        assert main(argv[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == output.splitlines(), command
