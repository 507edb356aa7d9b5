"""The public surface: every exported name resolves, the README's library
quickstart runs as written, importing the CLI loads no more than it needs,
and the test references import nothing from the package."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ris_secrecy

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"


def test_every_exported_name_resolves():
    assert len(set(ris_secrecy.__all__)) == len(ris_secrecy.__all__)
    missing = [name for name in ris_secrecy.__all__ if not hasattr(ris_secrecy, name)]
    assert missing == []
    # the analytic engine's one door is secrecy_report; its closed forms are report fields
    assert set(ris_secrecy.__all__) == {"McConfig", "McEstimate", "mc_points", "Model", "SecrecyReport",
                                        "SystemParams", "secrecy_report", "QuadratureError", "__version__"}


def test_readme_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "+-" in lines[1]


def test_cli_import_loads_no_unneeded_module():
    # every command's start-up pays for what the CLI imports: no command
    # needs a thread pool or logging, and SciPy and mpmath are test oracles
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, ris_secrecy.cli; "
            "print([m for m in ('concurrent.futures', 'logging', 'scipy', 'mpmath') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_reference_module_imports_nothing_from_the_package():
    # the oracles in tests/reference.py must share no code with what they check
    tree = ast.parse((REPO_ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "mpmath" in imported
    assert [name for name in imported if name.split(".")[0] in ("ris_secrecy", "")] == []
