#include "hwbaselines/task_superscalar.hh"

namespace tdm::hw {

std::vector<pwr::SramSpec>
tssSramSpecs(const TssConfig &cfg)
{
    unsigned bits = cfg.bytesPerEntry * 8;
    std::vector<pwr::SramSpec> specs;
    specs.push_back({"Gateway", cfg.gatewayKB * 1024 / 16, 128, 1, 0});
    // TRS and ORT are CAM-searched by 64-bit identifiers.
    specs.push_back({"TRS", cfg.entries, bits, cfg.entries, 64});
    specs.push_back({"ORT", cfg.entries, bits, cfg.entries, 64});
    specs.push_back({"ReadyQueue", cfg.entries, bits, 1, 0});
    return specs;
}

double
tssStorageKB(const TssConfig &cfg)
{
    double kb = 0.0;
    for (const auto &s : tssSramSpecs(cfg))
        kb += s.storageKB();
    return kb;
}

double
tssAreaMm2(const TssConfig &cfg)
{
    pwr::CactiModel model;
    double mm2 = 0.0;
    for (const auto &s : tssSramSpecs(cfg))
        mm2 += model.estimate(s).areaMm2;
    return mm2;
}

} // namespace tdm::hw
