"""Independent-set reconfiguration on cographs and chordal compositions.

The package root holds only what users call:

- ``Graph`` and ``is_cograph``;
- ``decide`` (TAR, returning a ``Decision``) and ``tj_decide`` (TJ);
- ``build_witness``, which returns a validated ``TarSequence``, and
  ``validate_tar_sequence`` for sequences from elsewhere;
- the brute-force checks ``oracle_reach`` and ``oracle_diameter``, and the
  instance generators ``gen_cograph``, ``gen_chordal`` and ``gen_composed``;
- the errors, whose CLI exit codes ``errors`` documents.

The machinery behind them (cotrees, tables, freedom, climbs, the bridge,
the other oracle queries) is imported from its module: ``isrecon.cotree``,
``.engine``, ``.chordal``, ``.witness``, ``.graph`` and ``.oracle``.
"""

from .cotree import is_cograph
from .engine import Decision, decide, tj_decide
from .errors import (InputError, InternalError, OracleCapacityError,
                     ReconError, UnreachableError, UnsupportedGraphClassError)
from .graph import Graph
from .oracle import (gen_chordal, gen_composed, gen_cograph, oracle_diameter,
                     oracle_reach)
from .witness import TarSequence, build_witness, validate_tar_sequence

__all__ = [
    "Graph", "is_cograph",
    "decide", "tj_decide", "Decision",
    "build_witness", "TarSequence", "validate_tar_sequence",
    "oracle_reach", "oracle_diameter", "gen_cograph", "gen_chordal", "gen_composed",
    "ReconError", "InputError", "UnreachableError", "UnsupportedGraphClassError",
    "InternalError", "OracleCapacityError",
]

__version__ = "0.1.0"
