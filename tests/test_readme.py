import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_its_stated_values(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    report, offdiag, quantum, faux = capsys.readouterr().out.splitlines()
    assert report.startswith("PropertyReport(")
    assert complex(offdiag) == pytest.approx(0.25, abs=1e-12)
    assert float(quantum) == pytest.approx(1.0, abs=1e-12)
    assert float(faux) == pytest.approx(0.5, abs=1e-12)
