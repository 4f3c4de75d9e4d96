import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    hit_ratios = [float(x) for x in capsys.readouterr().out.split()]
    assert len(hit_ratios) == 2 and all(0.0 <= h <= 1.0 for h in hit_ratios)
