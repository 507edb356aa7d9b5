"""Golden outputs of the CLI: the commands, and a script that rewrites their
committed outputs from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case is one CLI command run on a recipe; its output (or, for a
``--dump-config`` case, the config it writes) is committed in this directory
as ``<case>.csv``, ``<case>.txt`` or ``<case>.json``. ``tests/test_golden.py`` reruns
every case and compares it with that file, so a change to any of these
numbers shows up as a test failure and a re-baseline as a diff of this
directory. Run the script only for a deliberate change of outputs, and say
why with the diff.

The script also writes ``FINGERPRINT``: the Python and NumPy versions, the
machine and the SIMD extensions NumPy dispatches to, which together fix the
last bits of every number. Where the running fingerprint is the committed
one, the tests require the outputs byte for byte.
"""
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from ris_secrecy import cli

HERE = Path(__file__).resolve().parent
RECIPES = HERE.parent.parent / "recipes"
ALL_OUTPUTS = ["asc_exact", "asc_approx", "sop_corrected", "sop_paper_literal", "mc_asc", "mc_sop"]

# case name -> (recipe, CLI arguments after --config, outputs replacing the
# recipe's, or None to keep them)
CASES = {f"sweep-{fig}.csv": (fig, ["sweep"], None) for fig in
         ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9")}
CASES.update({f"eval-{fig}.csv": (fig, ["eval", "--csv"], ALL_OUTPUTS) for fig in ("fig4", "fig5")})
CASES.update({f"eval-{fig}.txt": (fig, ["eval"], ALL_OUTPUTS) for fig in ("fig4", "fig8")})
CASES["dump-config-fig8.json"] = ("fig8", ["sweep", "--dump-config"], None)
CASES.update({f"validate-{fig}.txt": (fig, ["validate"], None) for fig in ("fig4", "fig5", "fig8")})


def fingerprint() -> str:
    """The platform that the committed outputs were written on, as the text
    of ``FINGERPRINT``: the Python and NumPy versions, the machine and the
    SIMD extensions found at run time among those NumPy dispatches to."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]
    return (f"python {platform.python_version()}\nnumpy {np.__version__}\n"
            f"machine {platform.machine()}\nsimd {' '.join(found)}\n")


def run_case(name: str, workdir: Path) -> tuple:
    """(exit code, output text) of one case, run in this process with
    ``cli.main``; the config and the output file go to ``workdir``."""
    recipe, args, outputs = CASES[name]
    doc = json.loads((RECIPES / f"{recipe}.json").read_text(encoding="utf-8"))
    if outputs is not None:
        doc["outputs"] = outputs
    config = workdir / f"{name}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / name
    option = "--dump-config" if "--dump-config" in args else "--out"
    rest = [arg for arg in args[1:] if arg != option]
    code = cli.main([args[0], "--config", str(config), option, str(out)] + rest)
    return code, out.read_text(encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            code, text = run_case(name, Path(tmp))
            if code not in (0, 1):
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            (HERE / name).write_text(text, encoding="utf-8")
    (HERE / "FINGERPRINT").write_text(fingerprint(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
