"""Tests for tools/check_docs.py and the docs/ tree's static health.

The slow half of the checker (executing every snippet) runs as a
dedicated CI step; tier-1 keeps the fast guarantees: the extraction and
link rules are correct, the real docs' links resolve, and every doc
page actually contains runnable snippets for CI to execute.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestExtraction:
    def test_python_blocks_only(self):
        text = (
            "intro\n"
            "```python\nx = 1\n```\n"
            "```bash\necho no\n```\n"
            "```python no-run\nraise RuntimeError\n```\n"
            "```python\ny = x + 1\n```\n"
        )
        blocks = check_docs.extract_python_blocks(text)
        assert [src for _, src in blocks] == ["x = 1\n", "y = x + 1\n"]
        # Line numbers point at the code body (1-based).
        assert [line for line, _ in blocks] == [3, 12]

    def test_relative_links(self):
        text = (
            "[a](docs/serving.md) [b](https://example.com/x) "
            "[c](#anchor) [d](scenarios.md#drift) ![img](fig.png) "
            "[e](mailto:x@y.z)"
        )
        assert check_docs.extract_relative_links(text) == [
            "docs/serving.md",
            "scenarios.md",
            "fig.png",
        ]

    def test_snippets_run_cumulatively(self, tmp_path):
        page = tmp_path / "docs" / "page.md"
        page.parent.mkdir()
        page.write_text("```python\nvalue = 21\n```\n```python\nassert value * 2 == 42\n```\n")
        assert check_docs.run_snippets(page, tmp_path) == []

    def test_snippet_failure_reports_file_and_line(self, tmp_path):
        page = tmp_path / "bad.md"
        page.write_text("ok\n\n```python\nboom()\n```\n")
        errors = check_docs.run_snippets(page, tmp_path)
        assert len(errors) == 1
        assert "bad.md:4" in errors[0]
        assert "NameError" in errors[0]

    def test_broken_link_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("[gone](missing.md)")
        errors = check_docs.check_links(page, tmp_path)
        assert errors and "missing.md" in errors[0]


class TestRepositoryDocs:
    def test_expected_pages_exist(self):
        names = {p.name for p in check_docs.documentation_files(REPO_ROOT)}
        assert {
            "README.md",
            "architecture.md",
            "serving.md",
            "scenarios.md",
            "benchmarking.md",
        } <= names

    def test_all_intra_repo_links_resolve(self):
        errors = []
        for path in check_docs.documentation_files(REPO_ROOT):
            errors.extend(check_docs.check_links(path, REPO_ROOT))
        assert errors == []

    @pytest.mark.parametrize(
        "name", ["architecture.md", "serving.md", "scenarios.md", "benchmarking.md"]
    )
    def test_each_doc_page_has_runnable_snippets(self, name):
        text = (REPO_ROOT / "docs" / name).read_text()
        assert check_docs.extract_python_blocks(text) or "```bash" in text

    def test_links_only_cli(self, capsys):
        assert check_docs.main(["--links-only", "--root", str(REPO_ROOT)]) == 0
        assert "docs OK" in capsys.readouterr().out


def literal_first_args(*methods: str) -> set[str]:
    """Every literal string the package passes as the first argument of a
    call to one of ``methods``, both arms of a conditional included."""
    found = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
            ):
                first = node.args[0]
                if isinstance(first, ast.IfExp):
                    options = (first.body, first.orelse)
                else:
                    options = (first,)
                found.update(
                    option.value
                    for option in options
                    if isinstance(option, ast.Constant)
                    and isinstance(option.value, str)
                )
    return found


def written_metric_families() -> set[str]:
    """Every literal family name the package passes to ``inc``,
    ``set_gauge`` or ``observe_hist``, plus the observer's own
    ``events_total``."""
    return {"events_total"} | literal_first_args(
        "inc", "set_gauge", "observe_hist"
    )


class TestMetricTable:
    """docs/observability.md lists every metric family the code writes."""

    @staticmethod
    def documented() -> set[str]:
        text = (REPO_ROOT / "docs" / "observability.md").read_text()
        section = text.split("## Metric names, labels, units", 1)[1]
        section = section.split("\n## ", 1)[0]
        return set(re.findall(r"^\| `([a-z0-9_]+)` \|", section, re.MULTILINE))

    def test_collector_sees_the_engine_families(self):
        families = written_metric_families()
        assert {"requests_total", "requests_failed_total", "drift_rate"} <= families
        assert len(families) >= 22

    def test_table_lists_every_written_family(self):
        missing = written_metric_families() - self.documented()
        assert not missing, f"docs/observability.md lacks {sorted(missing)}"


class TestEventTable:
    """docs/observability.md lists every lifecycle event kind the code
    emits."""

    @staticmethod
    def documented() -> set[str]:
        text = (REPO_ROOT / "docs" / "observability.md").read_text()
        section = text.split("## Lifecycle events", 1)[1]
        section = section.split("\n## ", 1)[0]
        kinds = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                kinds.update(re.findall(r"`([a-z0-9_]+)`", line.split("|")[1]))
        return kinds

    def test_collector_sees_conditional_kinds(self):
        kinds = literal_first_args("event")
        # batching.py emits these two from one conditional expression.
        assert {"shed_engaged", "shed_released"} <= kinds
        assert {"worker_restart", "replica_crash", "fleet_gave_up"} <= kinds
        assert len(kinds) >= 24

    def test_table_lists_every_emitted_kind(self):
        missing = literal_first_args("event") - self.documented()
        assert not missing, f"docs/observability.md lacks {sorted(missing)}"
