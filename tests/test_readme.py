"""The README's Python quickstart runs as written, and its CLI output
blocks are what the CLI prints."""

import re
from pathlib import Path

from moebius_csr import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_output_blocks_match_the_cli(capsys, tmp_path):
    # the scenario JSON block, then the optimize report and statics table
    # blocks, in README order
    text = README.read_text()
    (scenario,) = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    path = tmp_path / "s.json"
    path.write_text(scenario, encoding="utf-8")
    statics = "moebius-csr statics --scenario s.json --param M --range 2:5:1"
    assert statics in text
    runs = [
        ["optimize", "--scenario", str(path)],
        ["statics", "--scenario", str(path), *statics.split()[4:]],
    ]
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
    outputs = [body for lang, body in fences if not lang]
    assert len(outputs) == len(runs)
    for argv, expected in zip(runs, outputs):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
