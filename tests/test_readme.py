import re
import shlex
from pathlib import Path

import yaml

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    hit_ratios = [float(x) for x in capsys.readouterr().out.split()]
    assert len(hit_ratios) == 2 and all(0.0 <= h <= 1.0 for h in hit_ratios)


def test_scenario_keys_match_cli():
    from semcache.cli import SETTINGS

    section = README.read_text(encoding="utf-8").split("### Scenario files", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    keys = set(yaml.safe_load(block))
    links = re.search(r"Each of the four links (.*?) takes", section, re.S).group(1)
    for link in re.findall(r"`(\w+)`", links):
        keys |= {f"{link}_delay_ms", f"{link}_bandwidth"}
    assert keys == set(SETTINGS)


def test_command_lines_parse():
    from semcache.cli import build_parser

    section = README.read_text(encoding="utf-8").split("## Command-line usage", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "semcache"
        parser.parse_args(argv)  # a line that does not parse exits
