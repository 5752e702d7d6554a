"""Documentation quality gates.

Deliverable (e) requires doc comments on every public item; these tests
make that a checked invariant rather than an aspiration: every module,
public class and public function in ``repro`` must carry a docstring, and
the repo-level documents must exist and mention what they promise.
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parent.parent


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_items_have_docstrings(module):
    missing = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__ != module.__name__:
                continue  # re-export; checked at its home module
            if not (obj.__doc__ and obj.__doc__.strip()):
                missing.append(name)
            if inspect.isclass(obj):
                for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                    if mname.startswith("_") or meth.__module__ != module.__name__:
                        continue
                    if not (meth.__doc__ and meth.__doc__.strip()):
                        missing.append(f"{name}.{mname}")
    assert not missing, f"undocumented public items in {module.__name__}: {missing}"


class TestRepoDocuments:
    def test_design_md_covers_every_figure(self):
        text = (REPO / "DESIGN.md").read_text()
        for n in (2, 3, 5, 6, 7, 8, 9):
            fig = f"Fig. {n}"
            assert fig in text, fig
        assert "Substitutions" in text

    def test_experiments_md_records_paper_vs_measured(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for fig in ("Figure 2", "Figure 3", "Figure 7", "Figure 8", "Figure 9"):
            assert fig in text, fig
        assert "Measured" in text and "paper" in text.lower()

    def test_readme_has_install_quickstart_architecture(self):
        text = (REPO / "README.md").read_text()
        for section in ("Install", "Quickstart", "Architecture"):
            assert section in text, section

    def test_examples_exist_and_are_documented(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for ex in examples:
            src = ex.read_text()
            assert src.lstrip().startswith(('"""', '#!')), ex.name
