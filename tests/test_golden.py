"""Golden sha256 values for sample CSVs and CLI result files.

The determinism test in test_acceptance compares two runs of one tree; these
values pin the bytes across changes to the code.  They were recorded with
numpy 2.4 and glibc's libm on x86-64 Linux, which fix the bits of every
draw and of every sin and interp evaluation; on another numpy or libm the
hashes may legitimately differ.  Config files are not hashed: they record
the output directory.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from modalgap.cli import main
from modalgap.core import SeedSpec, draw_labeled, draw_unlabeled, sample_to_csv
from modalgap.instances import (instance_to_json, make_boolean,
                                make_separable_from_fixed_points, make_sine,
                                make_sine_shattered, make_subspace,
                                make_three_param)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _witness64():
    signs = SeedSpec(4).child("signs").generator().integers(0, 2, size=64) * 2 - 1
    return make_sine_shattered([int(s) for s in signs], indices=range(1, 65))


FAMILIES = {
    "sine-continuous": lambda: make_sine(0.37),
    "sine-lattice": lambda: make_sine(0.7, support=12),
    "sine-witness-64": _witness64,
    "boolean": lambda: make_boolean(((0, 1), (1, 0))),
    "separable": lambda: make_separable_from_fixed_points(
        [Fraction(0), Fraction(3, 10), Fraction(7, 10), Fraction(1)]),
    "three-param-sine": lambda: make_three_param("sine-of-sum"),
    "three-param-sum": lambda: make_three_param("raw-sum"),
    "subspace": lambda: make_subspace([0.6, 0.0, 0.8], [0.1, 0.0, 0.2]),
}

SAMPLE_HASHES = {
    ("sine-continuous", "labeled"):
        "a193ef17340d22f7a54d45a586e4c1692d55e75e843d337115747331e64794b5",
    ("sine-continuous", "unlabeled"):
        "22f901d589f6fd0b22e0376fcf8f9ebd506fb129d87a097cac388b4dccba0b31",
    ("sine-lattice", "labeled"):
        "43f48c909f50da93f2130743cfb0ccc5a63b3d2b3460ef182aa6531989cf7a5f",
    ("sine-lattice", "unlabeled"):
        "9f9230836ca62a84ea9fa9b513913e22453ca5bae418297c90681c86d5bba25f",
    ("sine-witness-64", "labeled"):
        "ffccf56059c95963d45d923e2cf836dd2812c604175bb4690b6898b82877ee95",
    ("sine-witness-64", "unlabeled"):
        "bab2197bf16f6e7c3faea9830ca0973bdbc4ae634592fd78a4d47339a4e647a3",
    ("boolean", "labeled"):
        "7629e20edd5f939e9a4dc265e5436ab1874a6885740d8f0fdabca19555062d08",
    ("boolean", "unlabeled"):
        "75bf5297d3f3175c64ac8de62a227d6db24c00f5433cf7cc09bfd9f0f985a00d",
    ("separable", "labeled"):
        "ed468f75c6002f872edc220b580f2e2360d914bb88a5090f8324c340c156c3ee",
    ("separable", "unlabeled"):
        "5a7fadce0fbef6bad72fdfa4fd781e1cb0030a6f97d301e275c5d0393a59218c",
    ("three-param-sine", "labeled"):
        "c81025088806137f86824dabd61d59f7b47a3866f677d835776a796ffac495d3",
    ("three-param-sine", "unlabeled"):
        "e44576a9e12fa1f55bcdbaa117265b02f42dbb5d8cce6c10b687daaa2eb363a9",
    ("three-param-sum", "labeled"):
        "ef494ba1bdf8dbececffc639fdfe1d4aa10ae80d2656dff60c9b2356ebd817f9",
    ("three-param-sum", "unlabeled"):
        "f54a40b0da8603b67b0230c7e435edf910299970647fc3de4dd3a865c8b62c04",
    ("subspace", "labeled"):
        "384628b70f3cb8b0afc87571ee07b1fa8f1af7054c7749c457e416b45d0771c8",
    ("subspace", "unlabeled"):
        "665b3c891859bd1b58c47a48599818ee686bb46f6012d3ec4b12e73aac4df94c",
}


@pytest.mark.parametrize("family,kind", sorted(SAMPLE_HASHES))
def test_sample_csv_hash(family, kind):
    instance = FAMILIES[family]()
    seed = SeedSpec(2024).child(family)
    if kind == "labeled":
        sample = draw_labeled(instance, 2, 40, seed)
    else:
        sample = draw_unlabeled(instance, 2, 60, seed)
    assert sha(sample_to_csv(sample).encode()) == SAMPLE_HASHES[family, kind]


def _instance_file(tmp_path, instance):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(instance)))
    return str(path)


SHATTER_SIGNS = "+-+--++-+++---+-"

RUNS = {
    "separation": lambda tmp: ["separation", "--n", "2", "--trials", "4",
                               "--grid", "2000", "--seed", "3"],
    "fit-multimodal-sine": lambda tmp: [
        "fit-multimodal", "--instance", _instance_file(tmp, make_sine(0.7, support=12)),
        "--n", "6", "--m", "20", "--T", "3", "--seed", "5", "--dump-samples"],
    "fit-multimodal-boolean": lambda tmp: [
        "fit-multimodal", "--instance",
        _instance_file(tmp, make_boolean(((0, 1), (1, 1), (1, 0)))),
        "--connection", "boolean", "--predictor", "boolean-lookup",
        "--n", "6", "--m", "20", "--T", "3", "--seed", "5", "--dump-samples"],
    "fit-joint-sine": lambda tmp: [
        "fit-joint", "--instance", _instance_file(tmp, make_sine(0.7, support=12)),
        "--n", "5", "--T", "2", "--budget", "4000", "--seed", "6"],
    "fit-joint-boolean": lambda tmp: [
        "fit-joint", "--instance", _instance_file(tmp, make_boolean(((0, 1), (1, 0)))),
        "--connection", "boolean", "--predictor", "boolean-lookup",
        "--n", "6", "--T", "2", "--seed", "6"],
    "necessity": lambda tmp: ["necessity", "--n", "8", "--T", "2",
                              "--trials", "6", "--seed", "2"],
    "separability": lambda tmp: ["separability", "--sample-size", "64",
                                 "--seed", "4"],
    "shatter-sine-sign": lambda tmp: [
        "shatter", "--n", "16", "--signs", SHATTER_SIGNS, "--table",
        "--convention", "sine-sign"],
    "shatter-interval": lambda tmp: [
        "shatter", "--n", "16", "--signs", SHATTER_SIGNS, "--table",
        "--convention", "interval"],
    "gaussavg-composed-sine": lambda tmp: [
        "gaussavg", "--cls", "composed-sine", "--indices", "1,2,3,4,5,6,7,8",
        "--draws", "2000", "--seed", "3"],
    "gap-default": lambda tmp: [
        "gap", "--n", "6", "--support", "16", "--draws", "300",
        "--resamples", "3", "--seed", "8"],
    "gap-scaling": lambda tmp: [
        "gap", "--cls", "scaling", "--n", "6", "--support", "16",
        "--draws", "300", "--resamples", "3", "--seed", "8"],
    "gap-sign-complete": lambda tmp: [
        "gap", "--cls", "sign-complete", "--n", "6", "--support", "16",
        "--draws", "300", "--resamples", "3", "--seed", "8"],
    "fit-unimodal-composed-sine": lambda tmp: [
        "fit-unimodal", "--instance", _instance_file(tmp, make_sine(0.7, support=12)),
        "--n", "8", "--grid", "5000", "--seed", "9"],
    "fit-unimodal-scaling": lambda tmp: [
        "fit-unimodal", "--instance", _instance_file(tmp, make_sine(0.7, support=12)),
        "--cls", "scaling", "--n", "8", "--grid", "5000", "--seed", "9"],
    "fit-unimodal-boolean": lambda tmp: [
        "fit-unimodal", "--instance", _instance_file(tmp, make_boolean(((0, 1),))),
        "--cls", "boolean", "--n", "8", "--seed", "9"],
    "realizability-scaling": lambda tmp: [
        "realizability", "--instance", _instance_file(tmp, make_sine(0.7, support=12)),
        "--m", "30", "--seed", "10"],
    "realizability-boolean": lambda tmp: [
        "realizability", "--instance",
        _instance_file(tmp, make_boolean(((0, 1), (1, 1)))),
        "--cls", "boolean", "--T", "2", "--m", "30", "--seed", "10"],
    "bound": lambda tmp: ["bound", "--n", "6", "--m", "40", "--T", "2",
                          "--seed", "11"],
    "fit-multimodal-sign-complete": lambda tmp: [
        "fit-multimodal", "--instance", _instance_file(tmp, make_sine(0.7, support=12)),
        "--predictor", "sign-complete", "--n", "6", "--m", "20", "--T", "2",
        "--seed", "12"],
}

RESULT_HASHES = {
    "separation": {
        "separation.csv":
            "193b0234b6100e4b55ed59968ec2ee8eae3061cd9f8515a7836209017a14d0a4",
        "separation.json":
            "655a1987005b03fc6b13e89c13993eb84ada5fb2f5daca96bdd6bca1080eca8d",
    },
    "fit-multimodal-sine": {
        "labeled.csv":
            "312b40cdf180d1abb4c3d2471dd14e2c855644077fbcc39450aad8da7fb12e77",
        "solution.json":
            "01cefac4a0d509d9fb3a4f04bc7033953d67a32d9b96041b5735fadba586ca32",
        "unlabeled.csv":
            "938a8ba56ddb9dc1d12616786de66a466ab74072d884a82053d5bbf7e86a7d05",
    },
    "fit-multimodal-boolean": {
        "labeled.csv":
            "e2f718de251f592685e0d1579be40cf2614cea46a5d569b529cc56b8236e5700",
        "solution.json":
            "bcb9b8d3a4633f4a28482e4ab847a5e9849f19c3eefcd3fa7458666d0cacd431",
        "unlabeled.csv":
            "19d951ded2ee883641d69be48d1809ffe5324cc558583093dc6213ea19a22db5",
    },
    "fit-joint-sine": {
        "solution.json":
            "ba055f571fcacb90817a52d908544367099219106217d670864c0b1e2d429646",
    },
    "fit-joint-boolean": {
        "solution.json":
            "93cc1b4e318d20366255f7d877c94dfb5e7d6342689244830cda36b2fadd3b3d",
    },
    "necessity": {
        "necessity.csv":
            "8a431c6790deefe6f943513235592f25a829e5eca489333cecc4ad92f09305df",
        "necessity.json":
            "7005c1ca804c207a257acafb87884d99b82e30627f9217720065e96a86148e24",
    },
    "separability": {
        "separability.json":
            "71253e41e1b9ad8b4c1a5de3c48ad6523c039ba1afe9b43892fbe871980704c9",
    },
    "shatter-sine-sign": {
        "certificate.csv":
            "4cd7721140878f509edfdc362cfe47817feb4435d2e4364c6a8dad218a8cf44e",
        "certificate.json":
            "0a0bb6f1995d4a75ba01a5f8dc7fb535e9abd4830b09b60398852be6e5548896",
    },
    "shatter-interval": {
        "certificate.csv":
            "851ee19ded1fdd0f44e85b4e6062279caced07e9bc40d1b60e80f39365bb1752",
        "certificate.json":
            "ce19e315b524fc39da714c3d13f6b5be3b8ffba60abf40f99544e935a99812cd",
    },
    "gaussavg-composed-sine": {
        "estimate.json":
            "3ad7ac4bb38ceb74f808c8d4c8434e134f4b645eeefa2ab3fd5a305fd41a28eb",
    },
    "gap-default": {
        "gap.json":
            "a1813c7bb79e7d0ccf5539cfcdd932f8ebf7be5a00a3bdb5aed7f9b99c873914",
    },
    "gap-scaling": {
        "gap.json":
            "30b4ff6214b5f59dcc8c9c17ac7c57eb9e3641d49eb1eb5eb0a0952b8e2b7eba",
    },
    "gap-sign-complete": {
        "gap.json":
            "ca7a0208b2d8cc58512a3b409939aec7bebe1b7ca49d02d49b17273403974e61",
    },
    "fit-unimodal-composed-sine": {
        "solution.json":
            "a920b5a1c3e4db182d6a53954551a7bc624cabb9a503890ab0d99a7810fe2ef1",
    },
    "fit-unimodal-scaling": {
        "solution.json":
            "2035e2373d561f3b7d4f08351e6af2e9b2eb5c549070594d5b832c248f811a0c",
    },
    "fit-unimodal-boolean": {
        "solution.json":
            "f79c46fd5a7ea71ce756bf691a81668069825ba9b7939b8a1505483e69d30c50",
    },
    "realizability-scaling": {
        "realizability.json":
            "613512ffc243e840775024b8d72a4be05e7b49019cf31d66afdc97654cb0f96c",
    },
    "realizability-boolean": {
        "realizability.json":
            "ff9d87a199157ad5bf3f751ebfd3248f840468c7a7155ec744085017f53389a4",
    },
    "bound": {
        "bound.json":
            "ceddacfa8efaab63412ffb7efefbbc25f2ff77bac1f45b9ae0751a55aa20305b",
    },
    "fit-multimodal-sign-complete": {
        "solution.json":
            "3fc99c20d5b232281e13227386f1872511587e4e6bdf01c9c65217f57a810b2e",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_result_file_hashes(tmp_path, run):
    out = tmp_path / "out"
    code = main(RUNS[run](tmp_path) + ["--out", str(out)])
    assert code == 0
    written = {p.name: sha(p.read_bytes()) for p in sorted(out.iterdir())
               if p.name != "config.json"}
    assert written == RESULT_HASHES[run]
