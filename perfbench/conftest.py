"""Put tests/ on the import path: the checks reuse its MIDI reader and MusicXML builder."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
