"""Toolkit for building phrase-completion training data from treebanks."""

__version__ = "0.1.0"

from .treebank import ConstituencyTree, parse_ptb  # noqa: F401
from .phrases import PhraseGroups, PhraseSpan, extract_phrases  # noqa: F401
