"""EXPERIMENTS.md quotes what the figure benchmarks wrote.

Each figure section, and the Appendix B.3 section, quotes its
``results/`` files as fenced blocks, the line before a block naming the
file (`` `results/fig8_vpn_dct.txt`: ``).  A block must equal its file,
every figure file of both scales and the B.3 file must be quoted, and the
prose of such a section may not type a measured number of its own: a
number with two or more decimals (a kernel version aside) must appear in
one of that section's blocks.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGURES = ("fig8_vpn_dct", "fig9_multipath_speedup", "fig10_fec_dct",
           "fig11_multipath_vpn")
QUOTED = [f"results/{scale}{name}.txt"
          for name in FIGURES for scale in ("", "full/")] + [
              "results/appendixB_merkle.txt"]
QUOTING = ("## Figure", "## Appendix B.3")
BLOCK = re.compile(r"^`(results/[\w/]+\.txt)`:\n\n```\n(.*?)^```$", re.M | re.S)
NUMBER = re.compile(r"(?<!Linux )\d+\.\d{2,}")  # not a kernel version


def sections() -> dict:
    """Heading of a quoting section -> the section's text."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    parts = re.split(r"^(## .*)$", text, flags=re.M)
    return {head: body for head, body in zip(parts[1::2], parts[2::2])
            if head.startswith(QUOTING)}


def blocks() -> dict:
    return {path: body for text in sections().values()
            for path, body in BLOCK.findall(text)}


def test_every_figure_file_is_quoted():
    assert sorted(blocks()) == sorted(QUOTED)


@pytest.mark.parametrize("path", QUOTED)
def test_block_equals_results_file(path):
    assert blocks()[path] == (ROOT / path).read_text()


@pytest.mark.parametrize("head", sorted(sections()))
def test_prose_numbers_come_from_the_blocks(head):
    text = sections()[head]
    quoted = {n for _path, body in BLOCK.findall(text)
              for n in NUMBER.findall(body)}
    typed = [n for n in NUMBER.findall(BLOCK.sub("", text)) if n not in quoted]
    assert not typed, f"{head}: numbers not in its results blocks: {typed}"
