import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    # the python block under "Library quick start" runs as written, so a signature change cannot leave it behind
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README.name}: Library quick start", "exec"), {})
    verdict, iterations = capsys.readouterr().out.splitlines()[0].split()
    assert verdict == "converged" and int(iterations) > 0
