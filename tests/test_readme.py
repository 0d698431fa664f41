"""README's library example runs as written against the sample catalog."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs(capsys, table1_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    [example] = [block for block in blocks if "load_catalog(" in block]
    assert '"products.csv"' in example
    code = compile(example.replace('"products.csv"', repr(table1_path)), str(README), "exec")
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == example.count("print(")
