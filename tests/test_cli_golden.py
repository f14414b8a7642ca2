"""Byte-for-byte pins of the CLI's output.

Each row is a command line, the sha256 of what it writes to stdout and its
exit code. The digests were taken from the CLI as it stood before its
output code was restructured (the `vertices --m 4` pair before the vertex
enumeration moved to integer arithmetic; the `regions --m 5` rows and the
`--t-max 30` reciprocity rows before the per-m tables of the interval
graph were rebuilt; the last three rows, the benchmark's exact
reciprocity commands, before the reciprocity sum moved from compositions
to lines; the three `golomb-count` rows at the benchmark's sizes before the
ruler search passed its forbidden-mark mask down and counted last marks
with bit-sliced counters; the last two reciprocity rows before the
multiplicity sum moved from the orientation census to the intersection
lattice). The two `--jobs 2` rows pin a refusal, empty stdout and exit
code 1, since every search runs in one process; any change to a single
byte of any format fails here.

`HELP` pins the stdout of `golomb -h` and of `golomb <command> -h` for all
six commands at COLUMNS=80, and `USAGE_ERRORS` the stderr of four usage
errors: a missing `--m`, a bad `--format` choice, an unknown option and an
unknown command. Both were taken before `main` began to parse a command
line with the named command's parser alone; the `quasipoly -h` row was
taken again when `quasipoly` lost its `--period` option, and differs from
the old one only by that option's two lines; all six `<command> -h` rows
were taken again when the help line of `--jobs` changed, and differ from
the old ones only by that line. argparse words and lays out these texts
differently from one Python version to the next, so they are pinned for
CPython 3.11 only.
"""

import hashlib
import sys

import pytest

from golomb.cli import main

GOLDEN = """
golomb-count --check-table1 --format text  abd657314094a65605b68cea7629494139f003a0702ec1e385414b8a217847ea 0
golomb-count --check-table1 --format json  3916e3d1a4d703559d9ca2e6c9794cd6def1c5de2f86d54b2225e2d45b5ebc5d 0
golomb-count --check-table1 --format csv   9832f2f4dc91fd20f64c3cc9bd4430febec7944b05b6880bd27c40ff2c322afa 0
golomb-count --m 4 --t-min 11 --t-max 20 --format text  b9c95646ff1a285579a3dd81a565f1a5ecc8820708d690c1c5f0c46eed3e4812 0
golomb-count --m 4 --t-min 11 --t-max 20 --format json  28264cc388415f347f7de0ed7433c0b964ed565ed2a3adac64b21d79bc175bdd 0
golomb-count --m 4 --t-min 11 --t-max 20 --format csv   64337cf35a61f9f48ac91da02dc080549402104d307c6ab95e346598b0fea724 0
quasipoly --m 3 --format text  39df2351fdb0784f9f1749f3bd7e4db55bb0bc96f55e28823fb86cdef8dd9d4a 0
quasipoly --m 3 --format json  9d08b6eab0caef21fb98ba14e60b7ee8b0bd99f6f1a777bf70eb6004b7e88f4b 0
regions --m 4 --list --format text  11f6066c2b883b265435a8301516f3d891e9a9f1e7b698b2a4e6b05c5824e0a9 0
regions --m 4 --list --format json  f9c620b61d75f0155a0b1bc7d3bba8169ee07d15bf481cdd62587424037d30a2 0
reciprocity golomb --m 3 --t-min 0 --t-max 8 --format text  ca0f0f4ed573c1a94437f3b418e628f9fb51682423cbf072c515bdb4f0b3caae 0
reciprocity golomb --m 3 --t-min 0 --t-max 8 --format json  3d3c71a363bd670d231a80c4658d92016919e3103cfdc7164bb9818744c9a9f0 0
reciprocity mixed --fixture triangle --t 3 --format text  22bdade52669b6ae0df614a4c1770ffdc5e79bf4eda76d2db01bbe0f24d63fff 0
reciprocity mixed --fixture triangle --t 3 --format json  5523fc4d2ef84f78c11aaba1af8ccbf7460400365b74f48250a7d149ebde5de4 0
mixed chroma --fixture triangle --t 4 --format text  bb0d06eb8758562ad6d8143fde31f6c33a141d4850f6247209a6a4143228c994 0
mixed chroma --fixture triangle --t 4 --format json  76d5fc1dd8223baaee156e379f8f4756b708fd681a009ff3b4d2abeca3aa969f 0
mixed orientations --fixture triangle --format text  58a39a09530be160fdcfee8df0b6c12f804434c05d45868850b1f5f735b74ff3 0
mixed orientations --fixture triangle --format json  32d5f09c03500fcfa0213f174eef1c0c6b75f813292ff371dae09f249505b9e8 0
mixed chromatic-number --fixture triangle --format text  99195bac1216fb8cadb045ea4c81ed9314ca187be276f0061cdf874b80dfafb1 0
mixed chromatic-number --fixture triangle --format json  0ce214ee34e17538ff1490383115ed93361cadd6edf194b832fd82df55c8b4e7 0
vertices --m 3 --format text  3d2578602de8f939eae1260fe0352c1fcfd358710919232a3575744f69341694 0
vertices --m 3 --format json  b0d2a60c86bb13b3ce34a33b66e43ae5b0d50386df08f169ec691b7b2e14b1fe 0
vertices --m 3 --format csv   eb741b92465f4d093dd101cd729620d9c4da77e84e42fe660e05e70e0a0e5908 0
vertices --m 4 --format json  d225c6f9387313131383ef0a4fbee529efc7210a3540584c6a036fc7f1235893 0
vertices --m 4 --format csv   a641e8298f1e51c20b3c335ec66ff72788398998f0f56ac64e830da5142034fd 0
regions --m 2 --format csv    e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1
regions --m 5 --list --format json  5dac1e08a431352ed374b8de84e89abf1ad23ddd00bc06ee94e5f6ad028f2ccd 0
regions --m 5 --format text  cf4fd859ac3399e5168f06cef88c88a5d5e7f83f1818e3bab088de85447f8143 0
reciprocity golomb --m 2 --t-min 0 --t-max 30 --format json  d84ae113b842bbe859058665dc1f47ed65fa2ce0745fbc13726d2532699f6deb 0
reciprocity golomb --m 3 --t-min 0 --t-max 30 --format json  b02e2ca00ee690d5f6a4b9f73546736334e130fece46d157fad1b26e613ca1d8 0
reciprocity golomb --m 2 --t-min 0 --t-max 100 --format json  d9ed68829f5d4dc5b0918d33a1c90d1b75e57548420c60e5083a664cf505329c 0
reciprocity golomb --m 3 --t-min 0 --t-max 70 --format json  41ad68900459b785d48d10af00ff7511d34b78f6f36794c0c411b7d555c6bc80 0
reciprocity golomb --m 3 --t 2000 --format json  f0bddf440b74b6625440696cd1d4f485b5a7ad845e176bd11976accb4b84ec50 0
golomb-count --m 3 --t-min 1 --t-max 150 --format json  b44cf3b056ca830560c8d6bda6ecdef4d23c3cc4278e1562b829893b176732ed 0
golomb-count --m 4 --t-min 1 --t-max 60 --format json  cb9bc407ac83e72964deedc42437876386e498d2951f8dbb15713e5751fcc5bd 0
golomb-count --m 5 --t-min 1 --t-max 45 --format json  0404bc9972cc4fc340bd5ffbd8bcc5247b61ffa42ba7ae3182ddab65c4f213dd 0
golomb-count --m 4 --t-min 1 --t-max 60 --jobs 2 --format json  e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1
regions --m 5 --list --jobs 2 --format json  e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1
reciprocity golomb --m 3 --t-min 0 --t-max 40 --format text  2eb3d1f27366caeab06075f015f795c55002f00b7b5e7b13ca95b441981ed980 0
reciprocity golomb --m 1 --t-min 0 --t-max 5 --format json  2e5d282a9d0a1366df1e98cf6575e5d09b128b3f14665f8ba64b89581bf6d4b9 0
"""
CASES = [line.rsplit(None, 2) for line in GOLDEN.strip().splitlines()]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, sha256, code", CASES, ids=[case[0] for case in CASES])
def test_stdout_is_pinned(capsys, command, sha256, code):
    assert main(command.split()) == int(code)
    assert digest(capsys.readouterr().out) == sha256


def test_output_file_is_pinned(capsys, tmp_path):
    target = tmp_path / "regions.txt"
    assert main(["regions", "--m", "3", "--list", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert digest(target.read_text()) == "da079715bd984eb11f6a978b19933f75058fd7b3fc3f461b983c0272184ea279"


HELP = """
-h               45a085906196439b549c7c328223a9da7bf56ef0de61c55f40965a14c616da2d
golomb-count -h  b189b710c011df12cad194cb571a35062b43a25443c896e2151c43109a38539a
quasipoly -h     5bf41ecfb323d26f9c05da79e5db5be36ef5ab6e00ba8516608bc11f34e8370a
regions -h       f770b2b7c17c90fcfaa2929cd3a0b0f465da0db501c4c54cafbe59de4253c4dc
reciprocity -h   6c833fdc2bde7a8eb2e56991cdfe58744316e6ca5b0f025c8d37e4b989cbee9f
mixed -h         4aa8cb842a95343b226cefeef4f9043f022a39577004a858d9c2a2ff4180da55
vertices -h      5e5033716ae9758170bd26f52247ad5d9ffdf5d447401738cac84859750becd2
"""
HELP_CASES = [line.rsplit(None, 1) for line in HELP.strip().splitlines()]
USAGE_ERRORS = [
    ("quasipoly", "error: the following arguments are required: --m\n"),
    ("quasipoly --m 2 --format csv",
     "error: argument --format: invalid choice: 'csv' (choose from 'text', 'json')\n"),
    ("quasipoly --m 2 --bogus", "error: unrecognized arguments: --bogus\n"),
    ("no-such-command",
     "error: argument command: invalid choice: 'no-such-command' (choose from 'golomb-count',"
     " 'quasipoly', 'regions', 'reciprocity', 'mixed', 'vertices')\n"),
]
argparse_of_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="help and usage texts pinned under CPython 3.11"
)


@argparse_of_311
@pytest.mark.parametrize("command, sha256", HELP_CASES, ids=[case[0] for case in HELP_CASES])
def test_help_is_pinned(capsys, monkeypatch, command, sha256):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(command.split())
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert digest(out) == sha256 and err == ""


@argparse_of_311
@pytest.mark.parametrize("command, message", USAGE_ERRORS, ids=[case[0] for case in USAGE_ERRORS])
def test_usage_errors_are_pinned(capsys, command, message):
    assert main(command.split()) == 1
    assert capsys.readouterr() == ("", message)
