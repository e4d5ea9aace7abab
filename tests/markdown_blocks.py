"""A small line scanner for the block structure of a markdown report.

It follows CommonMark 0.30 where a report's structure is decided: lines end
at ``\\n``, ``\\r\\n`` or ``\\r`` (§2.1); a fenced code block (§4.5) opens with
up to three spaces of indentation and a run of at least three backticks or
tildes (a backtick fence's info string holds no backtick), and closes only at
a line of up to three spaces of indentation, a run of the same character at
least as long, and nothing but spaces or tabs after it, or else at the end of
the document; outside fences it finds ATX headings (§4.2) and the setext
underlines (§4.3) that follow a non-blank line. It does not enter block
quotes or lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_LINE_ENDING = re.compile(r"\r\n|\r|\n")
_OPENING = re.compile(r"( {0,3})(`{3,}|~{3,})(.*)")
_CLOSING = re.compile(r" {0,3}(`{3,}|~{3,})[ \t]*")
_ATX = re.compile(r" {0,3}#{1,6}(?:[ \t]|$)")
_SETEXT = re.compile(r" {0,3}(?:=+|-+)[ \t]*")


def split_lines(text: str) -> list[str]:
    return _LINE_ENDING.split(text)


@dataclass(frozen=True)
class Fence:
    info: str
    content: str  # the block's lines joined with "\n"
    closed: bool = True


@dataclass
class Blocks:
    outside: list[str] = field(default_factory=list)  # lines outside fences
    headings: list[str] = field(default_factory=list)
    fences: list[Fence] = field(default_factory=list)


def scan(markdown: str) -> Blocks:
    blocks = Blocks()
    opening = None  # the open fence's match, while inside one
    content: list[str] = []
    previous = ""
    for line in split_lines(markdown):
        if opening is not None:
            indent, run, info = opening.groups()
            closing = _CLOSING.fullmatch(line)
            if closing and closing[1][0] == run[0] and len(closing[1]) >= len(run):
                blocks.fences.append(Fence(info.strip(" \t"), "\n".join(content)))
                opening, previous = None, ""
            else:
                content.append(re.sub(f"^ {{0,{len(indent)}}}", "", line))
            continue
        match = _OPENING.fullmatch(line)
        if match and not (match[2][0] == "`" and "`" in match[3]):
            opening, content = match, []
            continue
        if _ATX.match(line) or (previous.strip(" \t") and _SETEXT.fullmatch(line)):
            blocks.headings.append(line)
        blocks.outside.append(line)
        previous = line
    if opening is not None:
        blocks.fences.append(Fence(opening[3].strip(" \t"), "\n".join(content), closed=False))
    return blocks
