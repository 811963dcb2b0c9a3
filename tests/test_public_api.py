"""Every public name has a caller outside the package.

A name in ``spinlift.__all__`` must occur as a word in some Python file under
``tests/`` (this file aside), ``demos/``, ``bench/`` or ``tools/``.  A name that
none of them uses is either dead or untested: delete it, or test it.
"""

import pathlib
import re

import spinlift

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("tests", "demos", "bench", "tools")


def caller_text() -> str:
    here = pathlib.Path(__file__).resolve()
    return "\n".join(
        path.read_text(encoding="utf-8")
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.resolve() != here
    )


def test_every_public_name_has_a_caller():
    text = caller_text()
    orphans = [name for name in spinlift.__all__
               if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert orphans == []
