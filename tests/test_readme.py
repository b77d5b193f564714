"""The README's Library example runs as written, so the documented API cannot
drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
