import csv
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


def test_load_map_is_current(tmp_path, monkeypatch):
    """The load map's sweeps, run as printed, give every value in its table."""
    from semcache.cli import main

    section = README.read_text(encoding="utf-8").split("## Where the comparison stands", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    table = [line for line in section.splitlines() if line.startswith("| ")][1:]
    locations = {"enodeb": "eNodeB", "sgw": "S-GW", "pgw": "P-GW"}
    monkeypatch.chdir(README.parent)  # the commands name the KB from the repository root
    rows = []
    for line in block.replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line)
        assert program == "semcache"
        at = {flag: argv.index(flag) + 1 for flag in ("--cache-location", "--values", "--out")}
        out = argv[at["--out"]] = str(tmp_path / argv[at["--out"]])
        assert main(argv) == 0
        reader = csv.DictReader(Path(out).read_text().splitlines())
        points = {(r["scenario_sweep_value"], r["mode"]): r for r in reader}
        for users in argv[at["--values"] : at["--out"] - 1]:
            sem, trad = points[users, "semantic"], points[users, "traditional"]
            latency = [float(r["mean_latency_ms"]) for r in (sem, trad)]
            hits = [float(r["hit_ratio"]) for r in (sem, trad)]
            cells = (
                locations[argv[at["--cache-location"]]],
                users,
                f"{100 * (latency[1] - latency[0]) / latency[1]:+.1f}%",
                f"{100 * (hits[0] - hits[1]) / hits[1]:+.1f}%",
                f"{int(sem['origin_bytes']) / 1e6:.1f}",
                f"{int(trad['origin_bytes']) / 1e6:.1f}",
                f"{float(sem['useless_prefetch_ratio']):.3f}",
            )
            rows.append("| " + " | ".join(cells) + " |")
    assert len(rows) == 15
    assert table == rows
