"""The README's API list, module map and dependency line hold for the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import breathsentinel

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "breathsentinel"


def readme_section(title: str) -> str:
    """The README text under `## title`, up to the next second-level heading."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_every_exported_name_is_in_the_python_api_section():
    section = readme_section("Python API")
    missing = [name for name in breathsentinel.__all__
               if not re.search(rf"`{re.escape(name)}\b", section)]
    assert missing == []


def test_every_module_is_in_the_layout_block():
    block = readme_section("Layout").split("```")[1]
    listed = set(re.findall(r"^\s+(\w+\.py)\b", block, flags=re.MULTILINE))
    modules = {path.name for path in PACKAGE.glob("*.py") if not path.name.startswith("__")}
    assert sorted(modules - listed) == []


def test_importing_every_module_leaves_scipy_unloaded():
    script = ("import pkgutil, sys, importlib, breathsentinel\n"
              "for mod in pkgutil.iter_modules(breathsentinel.__path__):\n"
              "    importlib.import_module('breathsentinel.' + mod.name)\n"
              "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
