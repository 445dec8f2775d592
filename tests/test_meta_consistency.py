"""Meta-tests: keep the code, the classifier and the docs consistent.

These guard against drift: every issue topic the substrate emits must be
classifiable, every classifier topic should be plausible, and the public
API surface must import cleanly.
"""

from __future__ import annotations

import pathlib
import re

from repro.core.concerns import TOPIC_LAYERS, ConcernClassifier

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_ISSUE_CALL = re.compile(r"""(?:sim|self\.sim)\.issue\(\s*['"]([a-z_]+)['"]""")


def _emitted_topics() -> set:
    topics = set()
    for path in SRC.rglob("*.py"):
        for match in _ISSUE_CALL.finditer(path.read_text()):
            topics.add(match.group(1))
    return topics


def test_every_emitted_issue_topic_is_classifiable():
    """No substrate module may emit an issue topic the classifier would
    refuse — otherwise E9's instrumentation would crash mid-run."""
    classifier = ConcernClassifier()
    emitted = _emitted_topics()
    assert emitted, "expected to find sim.issue call sites"
    unknown = {t for t in emitted if classifier.classify_topic(t) is None}
    assert unknown == set(), f"unclassifiable issue topics: {unknown}"


def test_experiment_issue_topics_subset_of_map():
    # experiments also emit via sim.issue(...) — already covered above,
    # but double-check the experiment scripts specifically.
    exp_topics = set()
    for path in (SRC / "experiments").rglob("*.py"):
        for match in _ISSUE_CALL.finditer(path.read_text()):
            exp_topics.add(match.group(1))
    assert exp_topics <= set(TOPIC_LAYERS)


def test_public_api_star_imports():
    """Every name in every package's __all__ must resolve."""
    import importlib

    for package in ("repro", "repro.kernel", "repro.env", "repro.phys",
                    "repro.net", "repro.resource", "repro.discovery",
                    "repro.services", "repro.user", "repro.core",
                    "repro.metrics", "repro.experiments"):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"


def test_all_lists_sorted():
    """__all__ lists are kept sorted for reviewability."""
    import importlib

    for package in ("repro.kernel", "repro.env", "repro.net",
                    "repro.resource", "repro.metrics"):
        module = importlib.import_module(package)
        names = list(getattr(module, "__all__"))
        assert names == sorted(names), f"{package}.__all__ not sorted"


def test_design_doc_mentions_every_experiment():
    """DESIGN.md's index must cover every registered experiment family."""
    from repro.experiments import list_experiments

    design = (SRC.parent.parent / "DESIGN.md").read_text()
    families = set()
    for experiment_id in list_experiments():
        families.add(experiment_id.split("-")[0])
    for family in families:
        assert family in design, f"DESIGN.md missing experiment {family}"


def test_every_module_has_docstring():
    for path in SRC.rglob("*.py"):
        if path.name == "__main__.py":
            continue
        text = path.read_text().lstrip()
        assert text.startswith('"""'), f"{path} lacks a module docstring"
