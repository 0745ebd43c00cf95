// Pins what reactive_reduce keeps on every benchmark circuit: a CRC-32 of
// the kept code, the sites kept, the STA evaluations and random kicks it
// took, and the exact bits of the three overhead ratios it reports. Each
// circuit's unfingerprinted area, delay and power (Baseline::measure) are
// pinned too: a model constant that scales every value alike leaves the
// ratios unchanged.
//
// The heuristic reads nothing but arrival times and slacks, so these pins
// hold any change to incremental timing to the bits a full STA of every
// trial produces. A missing or wrong entry fails with the line to paste.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "fingerprint/location.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

namespace odcfp {
namespace {

struct Pin {
  std::uint32_t code_crc = 0;
  std::size_t sites_kept = 0;
  std::size_t sta_evaluations = 0;
  std::size_t random_kicks = 0;
  std::uint64_t area_bits = 0;
  std::uint64_t delay_bits = 0;
  std::uint64_t power_bits = 0;
  bool operator==(const Pin&) const = default;
};

using Pins = std::map<std::string, Pin>;

// Expected outcomes, keyed "<circuit>/s<sites per location>/<limit %>".
const Pins& pinned() {
  static const Pins p = {
      {"c17/s1/10", {0xb2de047cu, 0, 3, 0, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}},
      {"c17/s1/5", {0xb2de047cu, 0, 3, 0, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}},
      {"c17/s1/1", {0xb2de047cu, 0, 3, 0, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}},
      {"c17/s4/10", {0xb2de047cu, 0, 3, 0, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}},
      {"c17/s4/5", {0xb2de047cu, 0, 3, 0, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}},
      {"c17/s4/1", {0xb2de047cu, 0, 3, 0, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}},
      {"c432/s1/10", {0xc4febe56u, 61, 24, 0, 0x3fc82fd4849eb588ull, 0x3fb871a885d79760ull, 0x3fc2c27c67fdeaa8ull}},
      {"c432/s1/5", {0xfefa2456u, 54, 31, 0, 0x3fc5bdb0a53b3e80ull, 0x3fa91b12032f4bc0ull, 0x3fc39ebe444e8720ull}},
      {"c432/s1/1", {0x2a6e84bbu, 44, 41, 0, 0x3fc23543f0c80458ull, 0x3f768002a5a5f700ull, 0x3fbce04093b70fa0ull}},
      {"c432/s4/10", {0xeee8a3b7u, 62, 52, 3, 0x3fcb2d1cce8a0e20ull, 0x3fb64b11ae7a8d10ull, 0x3fbed9445815d4a0ull}},
      {"c432/s4/5", {0xd98ce4fcu, 59, 55, 3, 0x3fc9461d59ae78a8ull, 0x3fa385a7f19b49a0ull, 0x3fbe446c89594f70ull}},
      {"c432/s4/1", {0x808013f1u, 50, 64, 3, 0x3fc5bdb0a53b3e80ull, 0x3f6134b6bae85200ull, 0x3fbd9d374820e830ull}},
      {"c499/s1/10", {0x14975460u, 44, 1, 0, 0x3faee58469ee5840ull, 0x3fa5614ba98a07a0ull, 0x3fb7306890ea2510ull}},
      {"c499/s1/5", {0x14975460u, 44, 1, 0, 0x3faee58469ee5840ull, 0x3fa5614ba98a07a0ull, 0x3fb7306890ea2510ull}},
      {"c499/s1/1", {0x0a5a4ed6u, 40, 5, 0, 0x3facb08d3dcb08e0ull, 0x3f7d85099ad0c600ull, 0x3fb5376f512377a0ull}},
      {"c499/s4/10", {0x387b0396u, 65, 1, 0, 0x3fb9ee58469ee580ull, 0x3fb730596d60dc90ull, 0x3fbd12da73f1c960ull}},
      {"c499/s4/5", {0x611d3bfdu, 64, 2, 0, 0x3fb91a7b9611a7c0ull, 0x3fa96546616c1380ull, 0x3fbcfecf6a616300ull}},
      {"c499/s4/1", {0x0b1a7139u, 54, 12, 0, 0x3fb53dcb08d3dcb0ull, 0x3f8363efb8841d00ull, 0x3fba84c50e71b150ull}},
      {"c880/s1/10", {0x390244c5u, 66, 3, 0, 0x3fca4374aa4c4d68ull, 0x3fb87e35b7b5d010ull, 0x3fc387d4cea9f690ull}},
      {"c880/s1/5", {0x3dba8d7du, 62, 7, 0, 0x3fc80d451d4df610ull, 0x3fa3af7ca0dfe0c0ull, 0x3fc29a0d9e3427d0ull}},
      {"c880/s1/1", {0xfbfbcd5fu, 58, 11, 0, 0x3fc664a1738f3488ull, 0x3f7df558fa178200ull, 0x3fc1172f331c5bb0ull}},
      {"c880/s4/10", {0xa5fad428u, 89, 6, 0, 0x3fd285ce3cd21ba4ull, 0x3fb73a55da1f32d0ull, 0x3fcda63f59972868ull}},
      {"c880/s4/5", {0x1af15b37u, 85, 10, 0, 0x3fd16ab67652eff8ull, 0x3fa431095fe8ec80ull, 0x3fccbd693dfaf4a8ull}},
      {"c880/s4/1", {0x5427e7c1u, 81, 14, 0, 0x3fd09664a1738f34ull, 0x3f8100df792fef80ull, 0x3fcb3a71d82af998ull}},
      {"c1355/s1/10", {0x6013cdffu, 49, 1, 0, 0x3fb5b82e55b82e50ull, 0x3fb1020ee4cb6c30ull, 0x3fb8ac845cfc2c70ull}},
      {"c1355/s1/5", {0x72fde689u, 44, 6, 1, 0x3fb288b01288b010ull, 0x3fa7b0115d112d00ull, 0x3fb76aa78b2de670ull}},
      {"c1355/s1/1", {0xd0515df3u, 36, 14, 1, 0x3fae1e1e1e1e1e20ull, 0x3f840ed1a2857180ull, 0x3fb450b94ebf48c0ull}},
      {"c1355/s4/10", {0x973fbbe6u, 64, 6, 0, 0x3fbd3fb5dd3fb5e0ull, 0x3fb9340d9f141850ull, 0x3fbb584a5c8d0a00ull}},
      {"c1355/s4/5", {0xa507e613u, 45, 25, 0, 0x3fb1f46a91f46a90ull, 0x3f9d304fa1ff5340ull, 0x3fb6dd18a1b53210ull}},
      {"c1355/s4/1", {0x5f3f927eu, 43, 27, 0, 0x3fb1602511602510ull, 0x3f840ed1a2857180ull, 0x3fb4f6b3449ec610ull}},
      {"c1908/s1/10", {0x5dabd33cu, 37, 1, 0, 0x3fa702e05c0b8180ull, 0x3fb71f666e3f8e10ull, 0x3fb008ecc7853130ull}},
      {"c1908/s1/5", {0xeabbb1e9u, 35, 3, 0, 0x3fa4cc722bcf5280ull, 0x3fa6735792dc30a0ull, 0x3faff460d0b1e1a0ull}},
      {"c1908/s1/1", {0xfb4d83ccu, 29, 9, 0, 0x3f9efa06a34a90c0ull, 0x3f8417a132c2e900ull, 0x3faed3ddae458620ull}},
      {"c1908/s4/10", {0x34504618u, 54, 3, 0, 0x3fb1b37181e17740ull, 0x3fb67c65d44d3590ull, 0x3fb288bad65b7ac0ull}},
      {"c1908/s4/5", {0x65d4290au, 50, 7, 0, 0x3faefa06a34a90c0ull, 0x3fa2b979fb062aa0ull, 0x3fb2443924054cc0ull}},
      {"c1908/s4/1", {0x9ecae052u, 36, 21, 0, 0x3fa53dbb68a828c0ull, 0x3f83b7092362b480ull, 0x3fadf88f4dca3d60ull}},
      {"c3540/s1/10", {0x00e2a370u, 215, 8, 0, 0x3fcb616d85b616d8ull, 0x3fb94621db611460ull, 0x3fc9e8acfb4b9d78ull}},
      {"c3540/s1/5", {0x45ebce49u, 207, 16, 0, 0x3fca3468d1a34690ull, 0x3fa990c177e198c0ull, 0x3fc999aa1ee51268ull}},
      {"c3540/s1/1", {0x71ff7610u, 192, 31, 0, 0x3fc8056015805600ull, 0x3f82d41fc8b92d00ull, 0x3fc7c2cc86b05bb8ull}},
      {"c3540/s4/10", {0x5f95c8c0u, 295, 18, 0, 0x3fd3514d453514d4ull, 0x3fb83a0a5d478380ull, 0x3fd247b0b2eeed48ull}},
      {"c3540/s4/5", {0x64069994u, 285, 28, 0, 0x3fd2850a142850a0ull, 0x3fa855adc6a68520ull, 0x3fd1e029dbba1e04ull}},
      {"c3540/s4/1", {0xc614b017u, 271, 42, 0, 0x3fd183060c183060ull, 0x3f83b13b13b13b00ull, 0x3fd104fc242ce7fcull}},
      {"c6288/s1/10", {0x0071c842u, 317, 3, 0, 0x3fbbe28b7a95dff0ull, 0x3fb81cc6b28b3a00ull, 0x3f946971a157fb00ull}},
      {"c6288/s1/5", {0x28cf5263u, 310, 10, 0, 0x3fbb57eeac663a10ull, 0x3fa974f83d1e76e0ull, 0x3f92c5adc7a525c0ull}},
      {"c6288/s1/1", {0x641f9d3fu, 291, 29, 0, 0x3fb9b81841d74850ull, 0x3f834f005b6d2900ull, 0x3f8b157a88dcb000ull}},
      {"c6288/s4/10", {0x3638d9c8u, 411, 18, 0, 0x3fc25af6e74f44e0ull, 0x3fb9877e75e90e20ull, 0x3f9e81e86d86c140ull}},
      {"c6288/s4/5", {0x646bdb03u, 398, 31, 0, 0x3fc1d05a191f9ef8ull, 0x3fa93b9aa605ecc0ull, 0x3f9bd2aea4fdb400ull}},
      {"c6288/s4/1", {0xc0f8e78eu, 358, 71, 0, 0x3fbfe44709f67870ull, 0x3f7ea98642f32900ull, 0x3f9385b0a4e996c0ull}},
      {"k2/s1/10", {0x43737cc8u, 254, 7, 0, 0x3fc495f47ac25650ull, 0x3fb7d97293534d30ull, 0x3fc11cdf1d9ddbf0ull}},
      {"k2/s1/5", {0x4e29d27cu, 244, 17, 0, 0x3fc3c879a03f7500ull, 0x3fa69b2315084e20ull, 0x3fc046a4e14e3188ull}},
      {"k2/s1/1", {0x269aefe4u, 234, 27, 0, 0x3fc2caa5a1618bd8ull, 0x3f817a54b846b300ull, 0x3fbd83d80de314e0ull}},
      {"k2/s4/10", {0x94ce6f61u, 356, 42, 2, 0x3fcea47f4ab1b7a8ull, 0x3fb87d194683fbd0ull, 0x3fcaa71d20cf62a8ull}},
      {"k2/s4/5", {0x57c15602u, 347, 51, 2, 0x3fcdef31025c5a48ull, 0x3fa78fb6f1024a60ull, 0x3fca3b82fecc8270ull}},
      {"k2/s4/1", {0x2e61a54du, 323, 75, 2, 0x3fcbf38904a087f8ull, 0x3f80210b81b89a80ull, 0x3fc9273c64b82778ull}},
      {"t481/s1/10", {0x32230651u, 172, 4, 0, 0x3fc3a71ce6b207f8ull, 0x3fb95cf877b5f870ull, 0x3fd1cee08a7c690cull}},
      {"t481/s1/5", {0x04c26c40u, 164, 12, 0, 0x3fc2c0ee67043d28ull, 0x3fa95e7d77eb2780ull, 0x3fd0eef38c636824ull}},
      {"t481/s1/1", {0xed35cf50u, 154, 22, 0, 0x3fc17819b09e3ff8ull, 0x3f83c102b3635f00ull, 0x3fc896edb9bfcd88ull}},
      {"t481/s4/10", {0x262d2b4bu, 246, 42, 0, 0x3fce3ff7c77b70a8ull, 0x3fb973c37ad3b9c0ull, 0x3fd5ba1c180179c4ull}},
      {"t481/s4/5", {0x692c88e8u, 234, 54, 0, 0x3fcc739ac81fdb00ull, 0x3fa9065b6bde7fe0ull, 0x3fd4533acdd77eb4ull}},
      {"t481/s4/1", {0xad34194bu, 203, 85, 0, 0x3fc888ab9bcf3070ull, 0x3f7b1113b355b300ull, 0x3fcc0a0506d8f680ull}},
      {"i10/s1/10", {0x7307c487u, 376, 7, 0, 0x3fc5b28a7a7bab00ull, 0x3fb533d406483ec0ull, 0x3fccea1cd80fa660ull}},
      {"i10/s1/5", {0x73f79f0cu, 367, 16, 0, 0x3fc51ae1907a09f0ull, 0x3fa556594074c280ull, 0x3fcc249e018d5220ull}},
      {"i10/s1/1", {0xbb57af94u, 349, 34, 0, 0x3fc41af485974a20ull, 0x3f833a34a325a580ull, 0x3fca027d03fdc330ull}},
      {"i10/s4/10", {0x4b938945u, 502, 54, 3, 0x3fd029782ffc720cull, 0x3fb7f67b43b95f50ull, 0x3fd30cae043d03e8ull}},
      {"i10/s4/5", {0x7c426050u, 481, 75, 3, 0x3fcef439c2d51fa0ull, 0x3fa892d6b4a11da0ull, 0x3fd23033d0597c98ull}},
      {"i10/s4/1", {0xe8fab5deu, 443, 113, 14, 0x3fcc1a5cdcad4880ull, 0x3f82d8bc775ca980ull, 0x3fcebe0f069e51f0ull}},
      {"i8/s1/10", {0x15f6f08au, 287, 8, 0, 0x3fc5496207d7aad8ull, 0x3fb73c4869aa3230ull, 0x3fcfe54d0b908ce8ull}},
      {"i8/s1/5", {0x61ad23a7u, 277, 18, 0, 0x3fc45a5ffa065940ull, 0x3fa96c9bbcad2960ull, 0x3fcea54d6999e820ull}},
      {"i8/s1/1", {0x02cba76au, 264, 31, 0, 0x3fc33b90b63e5dc0ull, 0x3f82a1aaccb59d80ull, 0x3fcd79de1a878f08ull}},
      {"i8/s4/10", {0xceb0d25fu, 372, 59, 0, 0x3fcdf82855258820ull, 0x3fb9907dc340e5f0ull, 0x3fd3b6a0b439a95cull}},
      {"i8/s4/5", {0xc3dc655du, 322, 109, 19, 0x3fc988de93834488ull, 0x3fa97220f8c3e400ull, 0x3fd2040277ecf054ull}},
      {"i8/s4/1", {0xf4df5578u, 273, 158, 39, 0x3fc5496207d7aad8ull, 0x3f81daee59836280ull, 0x3fce96d5000914a8ull}},
      {"dalu/s1/10", {0x25b67c6fu, 196, 8, 0, 0x3fc4ba479ac8d0e8ull, 0x3fb6c26c57bba330ull, 0x3fc22174990f04c8ull}},
      {"dalu/s1/5", {0x915c381cu, 191, 13, 0, 0x3fc41f39e03c4c70ull, 0x3fa7de666fccf520ull, 0x3fc1d7b39352a6a8ull}},
      {"dalu/s1/1", {0x3a4db808u, 180, 24, 0, 0x3fc2d7e40113a6a0ull, 0x3f84615777175f00ull, 0x3fc0f32454b65bc0ull}},
      {"dalu/s4/10", {0x32233df2u, 262, 38, 0, 0x3fce377405624128ull, 0x3fb971d7dde91850ull, 0x3fccf4d676561c88ull}},
      {"dalu/s4/5", {0x17c453b9u, 223, 77, 19, 0x3fc9817b051d5780ull, 0x3fa8c57fa4ee7920ull, 0x3fc9ac3e4b0cd490ull}},
      {"dalu/s4/1", {0xfad62aa5u, 207, 93, 19, 0x3fc75a2dc329b978ull, 0x3f82aaa571b0b280ull, 0x3fc5e3fc17cc1b20ull}},
      {"vda/s1/10", {0xd2c7e6c6u, 126, 10, 0, 0x3fc3e38908360290ull, 0x3fb8f08454d2e240ull, 0x3fc89a3368c65230ull}},
      {"vda/s1/5", {0xc3ee12a4u, 118, 18, 0, 0x3fc23f221f04ed38ull, 0x3fa84d7460bd6760ull, 0x3fc5dd325190e790ull}},
      {"vda/s1/1", {0x4a69e718u, 104, 32, 0, 0x3fc00e98e818d0c0ull, 0x3f82d09c29dcf500ull, 0x3fc59c5696554828ull}},
      {"vda/s4/10", {0x564307c5u, 150, 46, 0, 0x3fc9743b1e78cae8ull, 0x3fb8a2bfad36ea80ull, 0x3fcb4f8db4492fa8ull}},
      {"vda/s4/5", {0x15f7344bu, 130, 66, 3, 0x3fc5e55c25391ca8ull, 0x3fa87597d005a4e0ull, 0x3fc700b8dab5b4e0ull}},
      {"vda/s4/1", {0x71666a11u, 106, 90, 3, 0x3fc1e1b5eb32e878ull, 0x3f718f80af9b0800ull, 0x3fc4b361b7bb65d0ull}},
      {"des/s1/10", {0xfd741802u, 579, 420, 146, 0x3fbc01c8ee55ba20ull, 0x3fb988b4627f1cc0ull, 0x3fcb009ba703e6d0ull}},
      {"des/s1/5", {0xc1fd35beu, 380, 619, 270, 0x3fb23e1a82c4ea40ull, 0x3fa96989d5151640ull, 0x3fc12e1de9ebd0d8ull}},
      {"des/s1/1", {0x44d7004bu, 161, 838, 511, 0x3f9ec35710d33f40ull, 0x3f824cc66718dd80ull, 0x3fb03a638ee0c3a0ull}},
  };
  return p;
}

/// Bit patterns of Baseline::measure's area, delay and power.
struct BaselinePin {
  std::uint64_t area_bits = 0;
  std::uint64_t delay_bits = 0;
  std::uint64_t power_bits = 0;
  bool operator==(const BaselinePin&) const = default;
};

const std::map<std::string, BaselinePin>& pinned_baselines() {
  static const std::map<std::string, BaselinePin> p = {
      {"c17", {0x40b5c00000000000ull, 0x3fee04189374bc6cull, 0x404a393a3d70a3d7ull}},
      {"c432", {0x410aad8000000000ull, 0x4018c20c49ba5e35ull, 0x409103c6a274c263ull}},
      {"c499", {0x411a480000000000ull, 0x401c4e5604189374ull, 0x40a580e122b33316ull}},
      {"c880", {0x410a398000000000ull, 0x40243c28f5c28f5cull, 0x40977f7e1f5d8b82ull}},
      {"c1355", {0x4119090000000000ull, 0x401b5d2f1a9fbe77ull, 0x40a4a4cb86051e8full}},
      {"c1908", {0x4120622000000000ull, 0x4025b604189374bcull, 0x40adc2bdde3d70b6ull}},
      {"c3540", {0x4125948000000000ull, 0x4037b645a1cac088ull, 0x40b21afcb2e9bb30ull}},
      {"c6288", {0x4140bcc000000000ull, 0x404b6b126e978d47ull, 0x40c9ab5a11cf3840ull}},
      {"k2", {0x413331b000000000ull, 0x4032389374bc6a7dull, 0x40b5e5c141791b81ull}},
      {"t481", {0x412c38a000000000ull, 0x40359083126e978eull, 0x40a6dd11d67ba1c7ull}},
      {"i10", {0x413879d000000000ull, 0x403023126e978d52ull, 0x40bd4c095ae27f3dull}},
      {"i8", {0x413369e000000000ull, 0x4027be353f7ced90ull, 0x40b68e21c61b6d97ull}},
      {"dalu", {0x412aeec000000000ull, 0x4030bb4395810625ull, 0x40acc186d6bb7513ull}},
      {"vda", {0x4123dde000000000ull, 0x402a1fbe76c8b439ull, 0x40a5d44faf644736ull}},
      {"des", {0x4151435400000000ull, 0x4033f9fbe76c8b46ull, 0x40d2e7edabefd243ull}},
  };
  return p;
}

std::string pin_line(const std::string& key, const Pin& pin) {
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"%s\", {0x%08xu, %zu, %zu, %zu, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull}},",
                key.c_str(), static_cast<unsigned>(pin.code_crc),
                pin.sites_kept, pin.sta_evaluations, pin.random_kicks,
                static_cast<unsigned long long>(pin.area_bits),
                static_cast<unsigned long long>(pin.delay_bits),
                static_cast<unsigned long long>(pin.power_bits));
  return line;
}

void expect_pinned(const std::string& key, const Pin& got) {
  const auto it = pinned().find(key);
  if (it == pinned().end()) {
    ADD_FAILURE() << "no pinned outcome: " << pin_line(key, got);
  } else {
    EXPECT_TRUE(it->second == got)
        << "outcome changed: " << pin_line(key, got) << "\n  pinned: "
        << pin_line(key, it->second);
  }
}

std::string baseline_line(const std::string& circuit,
                          const BaselinePin& pin) {
  char line[160];
  std::snprintf(line, sizeof line,
                "{\"%s\", {0x%016llxull, 0x%016llxull, 0x%016llxull}},",
                circuit.c_str(),
                static_cast<unsigned long long>(pin.area_bits),
                static_cast<unsigned long long>(pin.delay_bits),
                static_cast<unsigned long long>(pin.power_bits));
  return line;
}

/// The circuit's golden netlist and its Baseline::measure, checked
/// against the pinned bit patterns.
struct Golden {
  explicit Golden(const std::string& circuit)
      : netlist(make_benchmark(circuit)),
        base(Baseline::measure(netlist, StaticTimingAnalyzer(),
                               PowerAnalyzer())) {
    const BaselinePin got{std::bit_cast<std::uint64_t>(base.area),
                          std::bit_cast<std::uint64_t>(base.delay),
                          std::bit_cast<std::uint64_t>(base.power)};
    const auto it = pinned_baselines().find(circuit);
    if (it == pinned_baselines().end()) {
      ADD_FAILURE() << "no pinned baseline: " << baseline_line(circuit, got);
    } else {
      EXPECT_TRUE(it->second == got)
          << "baseline changed: " << baseline_line(circuit, got)
          << "\n  pinned: " << baseline_line(circuit, it->second);
    }
  }

  const Netlist netlist;
  const Baseline base;
};

/// CRC-32 of the code, one location per row ending in 0xff (no option
/// index reaches 0xff).
std::uint32_t code_crc(const FingerprintCode& code) {
  std::string bytes;
  for (const auto& row : code) {
    bytes.append(row.begin(), row.end());
    bytes.push_back('\xff');
  }
  return atomic_io::crc32(bytes);
}

Pin reduce(const Golden& golden, int sites_per_location,
           const ReactiveOptions& options) {
  LocationFinderOptions lopts;
  lopts.max_sites_per_location = sites_per_location;
  const std::vector<FingerprintLocation> locs =
      find_locations(golden.netlist, lopts);
  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  Netlist work = golden.netlist;
  FingerprintEmbedder embedder(work, locs);
  embedder.apply_all_generic();
  const HeuristicOutcome out =
      reactive_reduce(embedder, golden.base, sta, power, options);
  EXPECT_EQ(out.status, Status::kOk);
  Pin pin;
  pin.code_crc = code_crc(out.code);
  pin.sites_kept = out.sites_kept;
  pin.sta_evaluations = out.sta_evaluations;
  pin.random_kicks = out.random_kicks;
  pin.area_bits = std::bit_cast<std::uint64_t>(out.overheads.area_ratio);
  pin.delay_bits = std::bit_cast<std::uint64_t>(out.overheads.delay_ratio);
  pin.power_bits = std::bit_cast<std::uint64_t>(out.overheads.power_ratio);
  return pin;
}

constexpr double kLimits[] = {0.10, 0.05, 0.01};

std::string key_of(const std::string& circuit, int sites_per_location,
                   double limit) {
  return circuit + "/s" + std::to_string(sites_per_location) + "/" +
         std::to_string(static_cast<int>(limit * 100 + 0.5));
}

TEST(ReduceDigest, EveryCircuitKeepsThePinnedCode) {
  // One restart with the library's 32 candidates per iteration: with one
  // site per location as an order's site selection runs it, and with
  // Table III's four, whose appended gates chain on one output.
  for (const std::string& circuit : benchmark_names()) {
    if (circuit == "des") continue;
    SCOPED_TRACE(circuit);
    const Golden golden(circuit);
    for (int sites : {1, 4}) {
      for (double limit : kLimits) {
        const std::string key = key_of(circuit, sites, limit);
        SCOPED_TRACE(key);
        ReactiveOptions options;
        options.max_delay_overhead = limit;
        options.restarts = 1;
        expect_pinned(key, reduce(golden, sites, options));
      }
    }
  }
}

TEST(ReduceDigest, DesUnderTheDelayBudgetSettingsKeepsThePinnedCode) {
  // des with 4 candidates per iteration and one seed per limit, as the
  // delay_budget workload runs it.
  const Golden golden("des");
  std::uint64_t seed = 11;
  for (double limit : kLimits) {
    const std::string key = key_of("des", 1, limit);
    SCOPED_TRACE(key);
    ReactiveOptions options;
    options.max_delay_overhead = limit;
    options.restarts = 1;
    options.max_candidates_per_iteration = 4;
    options.seed = seed++;
    expect_pinned(key, reduce(golden, 1, options));
  }
}

}  // namespace
}  // namespace odcfp
