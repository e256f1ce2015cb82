"""The default experiment, pinned exactly, and the README's run file against the config table."""

import re
from pathlib import Path

from eprqkd import cli
from eprqkd.defaults import build_setup, default_setup, parse_config_file

# Literals are the shortest round-tripping reprs of the values, so == is exact.
SOURCE_WIDTHS = (0.3306559138036599, 1.8, 0.8320657025339606, 3.7)  # sigma-, sigma+, kappa-, kappa+
ALICE_CENTERS = (0.9629028250046247, 2.0370971749953752, 2.0703688434198, 0.9296311565802)
EQUALIZED_ATTENUATIONS = (  # A's then B's slits, each x1, x2, p1, p2
    0.9739365406416658, 0.9739365406416642, 0.4398708646020884, 0.4398708646020884,
    0.9999999999999998, 0.999999999999999, 0.4398708646020884, 0.4398708646020884,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_default_experiment_is_pinned():
    src, alice, bob = default_setup()
    slits = [d for station in (alice, bob) for d in station.x_detectors + station.p_detectors]
    assert (src.sigma_minus, src.sigma_plus, src.kappa_minus, src.kappa_plus) == SOURCE_WIDTHS
    assert tuple(d.center for d in slits[:4]) == ALICE_CENTERS
    assert tuple(d.center for d in slits[4:]) == (1.0, 2.0, 1.0, 2.0)
    assert tuple(d.attenuation for d in slits) == EQUALIZED_ATTENUATIONS


def test_readme_run_file_parses(tmp_path):
    """The README's run.cfg example sets only keys of the config table, to valid values."""
    blocks = re.findall(r"```\n(# run\.cfg.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "run.cfg"
    path.write_text(blocks[0])
    cfg = parse_config_file(str(path))
    assert cfg != parse_config_file(None)
    build_setup(cfg)
    cli.build_attack(cfg)
