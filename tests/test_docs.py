"""The README's API list, module map, config defaults and dependency line hold for the package."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import breathsentinel
from breathsentinel.config import RunConfig, _coerce

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


def test_configuration_defaults_block_matches_run_config():
    text = (ROOT / "README.md").read_text()
    block = text[text.index("\n### Configuration\n"):].split("```")[1]
    pairs = [token.split("=", 1) for token in block.split()]
    keys = [key for key, _ in pairs]
    fields = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in ("corpus_dir", "model_path")]
    assert sorted(keys) == sorted(fields)
    defaults = RunConfig()
    assert {key: _coerce(key, raw) for key, raw in pairs} == {
        name: getattr(defaults, name) for name in fields}
