"""Cycle-level simulator of a dual-mode machine that computes on
encrypted operands, with its assembler and flat reference interpreter."""

from .assembler import (Assembler, CryptoSafetyError, FormatError, Image,
                        ParseError, assemble, parse_image, write_image)
from .check import AliasDetected, compare, engine_view
from .codec import (Codec, NotAProgramAddress, ProgramFault, make_padding,
                    pad_mix)
from .core import MachineState, Mode
from .memsys import MemorySystem, PhysicalExhausted
from .oracle import Interpreter, interpret
from .pipeline import (BranchPredictionBuffer, CycleStats, Engine,
                       SimulationFault)
from .progen import generate_source

__version__ = "0.1.0"

__all__ = [
    "Assembler", "CryptoSafetyError", "FormatError", "Image", "ParseError",
    "assemble", "parse_image", "write_image",
    "Codec", "NotAProgramAddress", "ProgramFault", "make_padding", "pad_mix",
    "MachineState", "Mode",
    "MemorySystem", "PhysicalExhausted",
    "AliasDetected", "Interpreter", "compare", "engine_view", "interpret",
    "BranchPredictionBuffer", "CycleStats", "Engine", "SimulationFault",
    "generate_source",
    "__version__",
]
