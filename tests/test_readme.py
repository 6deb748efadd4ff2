"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # later blocks use the names earlier ones define, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def _edge(text: str) -> tuple:
    """(multiple, of_tol) of a table edge: ``10 tol`` or a fixed number."""
    if text.endswith("tol"):
        return float(text[:-3] or 1), True
    return float(text), False


def test_readme_verdict_table_lists_every_judge():
    from finsler4.classify import JUDGES

    # the Verdicts paragraph up to the next bold heading
    text = README.read_text(encoding="utf-8")
    section = text.split("**Verdicts.**", 1)[1].split("\n**", 1)[0]
    table = {}
    for question, quantity, reference, small, large in re.findall(
        r"^\| `(\w+)` \| (.+?) \| (.+?) \| (.+?) \| (.+?) \|$", section, re.MULTILINE
    ):
        (small, of_tol), (large, large_of_tol) = _edge(small.strip("`")), _edge(large.strip("`"))
        assert of_tol == large_of_tol, question
        table[question] = (tuple(re.findall(r"`(\w+)`", quantity)), reference.strip("`"),
                           small, large, of_tol)
    want = {
        question: ((row.quantity,) if isinstance(row.quantity, str) else row.quantity,
                   row.reference, row.small, row.large, row.of_tol)
        for question, row in JUDGES.items()
    }
    assert table == want
