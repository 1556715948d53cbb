"""Deductive semantic composition for LFG: meaning assembly as proof search
in the tensor fragment of higher-order linear logic."""

from .fstruct import parse_fstructure
from .glue import load_lexicon, parse_lexicon
from .prover import readings_for_document
from .terms import GlueError

__all__ = ["GlueError", "load_lexicon", "parse_fstructure", "parse_lexicon",
           "readings_for_document"]
