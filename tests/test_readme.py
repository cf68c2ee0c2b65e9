"""The README's library snippet runs, and the package root exports exactly its names."""

import re
from pathlib import Path

import gkm_crystals
from gkm_crystals.elementary import ElementaryCrystal

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library entry points"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet():
    ns: dict = {}
    exec(compile(_library_snippet(), str(README), "exec"), ns)
    crystal, b = ns["crystal"], ns["b"]
    assert crystal.eps_star(b, 1) == 2
    residual, factor = crystal.psi_embed(b, 1)
    assert residual.entries == (0, 1)
    assert ElementaryCrystal(crystal.datum, 1).key(factor) == "b1(-2)"


def test_package_root_exports_the_readme_imports():
    imported = re.search(r"from gkm_crystals import \((.*?)\)", _library_snippet(), re.S).group(1)
    assert sorted(gkm_crystals.__all__) == sorted(name.strip() for name in imported.split(",") if name.strip())
