"""The README's library example runs and prints what its comments say."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    """The first ```python block under the README's "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_matches_its_comments():
    code = library_example()
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)

    result, floor, worst = scope["result"], scope["floor"], scope["worst"]
    assert result.best_value == Fraction(4, 19)
    assert len(result.winners) == 12
    assert floor == Fraction(1, 5)
    assert worst.value == Fraction(1, 5)
    assert worst.weights == (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5))

    comments = " ".join(line.split("#", 1)[1] for line in code.splitlines() if "#" in line)
    for claim in ("4/19, 12 tied committees", "1/5", "value 1/5, weights (1/10, 3/10, 3/5)"):
        assert claim in comments
