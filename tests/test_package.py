"""The public surface: every exported name resolves, and the README's library
quickstart runs as written."""
import re
from pathlib import Path

import ris_secrecy

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(ris_secrecy.__all__)) == len(ris_secrecy.__all__)
    missing = [name for name in ris_secrecy.__all__ if not hasattr(ris_secrecy, name)]
    assert missing == []


def test_readme_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "+-" in lines[1]
