"""Golden-output pins: the SHA-256 of ``involute`` stdout on fixed inputs.

Each command runs through ``cli.main`` in process; ``complete`` prints JSON,
from which the ``timing_seconds`` line is dropped.  A change meant to keep
every output byte-identical keeps these digests; a change meant to alter an
output updates its digest and says why.
"""

import hashlib
from pathlib import Path

import pytest

from involute.cli import main

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "complete problems/example1.pde --division janet --json":
        "6090d4654deaff13e8ebaf0561509555893a68bf522b6964a3201f66500eea97",
    "ivp problems/example1.pde --division janet":
        "b039a594c4e38e217ad5e820cae0bffe9846fd769a860ba2e8735c9d39478db2",
    "hilbert problems/example1.pde --division janet":
        "9dea332e83d2ca0f6835c7c493270163ac5317a960301286168856c75ae4ab59",
    "verify problems/example1.pde --division janet":
        "0a0372121b2b86e0593fc4fe269dfcf570f88cbcb318a67975014f4777ede9bf",
    "complete problems/example1.pde --division lexinduced --json":
        "1e494ad4053f5d8b3715f355fb608786035320bdd41c876881e44f2abbbc4a8a",
    "ivp problems/example1.pde --division lexinduced":
        "d56e08f267c8424b241349d908ff7cd33b71e8cdb02b032b569498cd265f2bdc",
    "hilbert problems/example1.pde --division lexinduced":
        "9dea332e83d2ca0f6835c7c493270163ac5317a960301286168856c75ae4ab59",
    "verify problems/example1.pde --division lexinduced":
        "b82bea63b38db2f114e2ba2d86aebe4fa7ae0b292afcf0c3a36616a9e9272716",
    "complete problems/fourvar.pde --division janet --json":
        "ac3a24ca6a41f48b0345990243798d88aff06e8a13c13a483dd0fcadc75ee74f",
    "ivp problems/fourvar.pde --division janet":
        "67597e4787fc8e22e87c2d3bbd4dcd1504d3695e02cbad22b8c3df9c170b3169",
    "hilbert problems/fourvar.pde --division janet":
        "7c37b8574e4f85b222adeb3b065991b9aaaf5eee6906856bb7d6f830698522d1",
    "verify problems/fourvar.pde --division janet":
        "2a159745fce92973d44774807a9d5e8d7ba5268682d4b3102b24bfe5690e54a1",
    "complete problems/fourvar.pde --division lexinduced --json":
        "9ed338a3e556118e0aeb0532c8a94f67d39957026fcbecb94a62f7193ad61738",
    "ivp problems/fourvar.pde --division lexinduced":
        "06aca6a49db8be874e88b6acdb2dc8f3e01deadc90dfaf92cf0730af9cbfc777",
    "hilbert problems/fourvar.pde --division lexinduced":
        "7c37b8574e4f85b222adeb3b065991b9aaaf5eee6906856bb7d6f830698522d1",
    "verify problems/fourvar.pde --division lexinduced":
        "4929eda7eba66ca2fec34c81e4ec753bb6e7815525d3d9f852078f2f519d347b",
    "complete problems/fourvar.pde --division pommaret --json":
        "8c4f7be28389d56be60bd8f987bb20397f066a41fbc6423b97b4a4712f7b47fa",
    "ivp problems/fourvar.pde --division pommaret":
        "c7948099ebfa04bd96088ca61af32bb882e8833e49e0ef93d335143a00ea2ecb",
    "hilbert problems/fourvar.pde --division pommaret":
        "7c37b8574e4f85b222adeb3b065991b9aaaf5eee6906856bb7d6f830698522d1",
    "verify problems/fourvar.pde --division pommaret":
        "752e360a1e190d0e8718c25aa18016cd37c68ea7ef5f136779ffeabdc99ecb04",
    "complete problems/janet3.pde --division janet --json":
        "87d1c0ff9dbc0ac5346d379fec7f04cd4a3574f70491f094e25d87968650db7a",
    "ivp problems/janet3.pde --division janet":
        "06855d315796ae92abb42aaa8a8c0581a8ec7ef0427e143e314a4887ce268c66",
    "hilbert problems/janet3.pde --division janet":
        "2bb0707fda1d8abb5fde441f6b7a0639b017fda56d8affbce87cfb6a1b5a2799",
    "verify problems/janet3.pde --division janet":
        "2a159745fce92973d44774807a9d5e8d7ba5268682d4b3102b24bfe5690e54a1",
    "complete problems/janet3.pde --division lexinduced --json":
        "634e057d3922d1c375cdc77f987c8426a16ce77f2ca5edaa602ee603d8664c78",
    "ivp problems/janet3.pde --division lexinduced":
        "495b79cd43a6966cedf818ca35928f4d6cb3c1399cfd7f33da6a9444a404b76d",
    "hilbert problems/janet3.pde --division lexinduced":
        "2bb0707fda1d8abb5fde441f6b7a0639b017fda56d8affbce87cfb6a1b5a2799",
    "verify problems/janet3.pde --division lexinduced":
        "4929eda7eba66ca2fec34c81e4ec753bb6e7815525d3d9f852078f2f519d347b",
    "complete problems/janet3.pde --division pommaret --json":
        "2ebb7ce8f924da3e1ba748830c728704b4b90b2bf8e57964e6b443867854884b",
    "ivp problems/janet3.pde --division pommaret":
        "bf240a78d25ddbd457cf4f6f69677a4e74745c6b2c4f2318d1220f050cb87b46",
    "hilbert problems/janet3.pde --division pommaret":
        "2bb0707fda1d8abb5fde441f6b7a0639b017fda56d8affbce87cfb6a1b5a2799",
    "verify problems/janet3.pde --division pommaret":
        "752e360a1e190d0e8718c25aa18016cd37c68ea7ef5f136779ffeabdc99ecb04",
    "complete problems/lewy.pde --division janet --json":
        "9bf5eaa130388d3523d49eaf4ef34034efcc6ffcc547b1bdc00d32b1561c3d0a",
    "ivp problems/lewy.pde --division janet":
        "4812e0681194619038bf4baf7afba7dfbc65ef2528a1a29fc8785a24de7485e6",
    "hilbert problems/lewy.pde --division janet":
        "6028f0f102726b7cd62ecd7b0a9838d741d45b3d736cc6e0eb751486270a8450",
    "verify problems/lewy.pde --division janet":
        "373724053d8012c6445cc99de9db868464c7540faff5fd86b66d0c3fdf6e2e4e",
    "complete problems/lewy.pde --division lexinduced --json":
        "7ae17dff88055d45c2cae24d192eb5778a26bd98f1b63b4c5ff30e731f2765b7",
    "ivp problems/lewy.pde --division lexinduced":
        "36bdbb6b6f91fae7d5d0e619908ca00e8727f580114d6f6c9cb540b6c4598341",
    "hilbert problems/lewy.pde --division lexinduced":
        "6028f0f102726b7cd62ecd7b0a9838d741d45b3d736cc6e0eb751486270a8450",
    "verify problems/lewy.pde --division lexinduced":
        "508b80f630bbb1bd4a6f5dbee279951f10c76e6e656a09b32754cab229b05162",
    "symmetry problems/diffusion.pde":
        "7c6ef9bb95e58486c03f082dac0f93c2b373306823e0baa52711c4ea0234c6e5",
    "symmetry problems/harrydym.pde":
        "a1a61d05165e2ca1f09e9863663f670f4d8c462bbfb1e9351b6de83502c1f1db",
    "symmetry problems/transport.pde":
        "9002c5f992d017f4e77838c02dc88225d24cfb81fe8f321ca9a296a4c5cd92b8",
    "symmetry perfbench/inputs/harrydym.pde":
        "a1a61d05165e2ca1f09e9863663f670f4d8c462bbfb1e9351b6de83502c1f1db",
    "symmetry perfbench/inputs/diffusion.pde":
        "7c6ef9bb95e58486c03f082dac0f93c2b373306823e0baa52711c4ea0234c6e5",
    "symmetry perfbench/inputs/transport.pde":
        "9002c5f992d017f4e77838c02dc88225d24cfb81fe8f321ca9a296a4c5cd92b8",
    "symmetry perfbench/inputs/kdv.pde":
        "be581aa984da1b86f56dcca0cbfa347dbe037ecc565a772f02a87ecf0d201f29",
    "symmetry perfbench/inputs/burgers.pde":
        "59ab3f298b77488088724f77a463220967a7ddd51c7237a3e813b8a102223257",
    "symmetry perfbench/inputs/heat.pde":
        "a4b9f17a9a57af2cbf1a70af2ea330aa18c222fead083021d1500cf9efbdde79",
    "symmetry perfbench/inputs/nls.pde":
        "be5ba3b79e9fd1b61a61e4ddf5194b4f55ec987a224fcbc6726d4f8dbf020038",
    "symmetry perfbench/inputs/zk.pde":
        "457f90daef79780442181bd34884417bd25b6531998b8cb43ce8fe74b3a0a57b",
    "symmetry perfbench/inputs/kp.pde":
        "a92993a971907b7f29c8aac200ebed6f61e9f026d75727b1c24d3d1c72f35f3e",
    "symmetry perfbench/inputs/boussinesq.pde":
        "ca6e07db6fcf972cbf928b8b8810476deeab9c8d422349f728da41c0d7d0883f",
    "symmetry perfbench/inputs/euler2d.pde":
        "ceedd51152c0142c620b20b2d48eb0e31b14ad3199284db25393aa3a4d090793",
}


@pytest.mark.parametrize("command", list(PINS))
def test_stdout_digest(command, capsys):
    argv = command.split()
    argv[1] = str(ROOT / argv[1])
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    out = "".join(line for line in out.splitlines(True)
                  if not line.lstrip().startswith('"timing_seconds"'))
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[command]
