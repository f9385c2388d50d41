#include "power/cacti_model.hh"

namespace tdm::pwr {

SramEstimate
CactiModel::estimate(const SramSpec &spec) const
{
    SramEstimate e;
    e.storageKB = spec.storageKB();

    double area = fixedAreaMm2
        + static_cast<double>(spec.totalBits()) * cellAreaMm2PerBit;
    double cmp_energy = 0.0;
    if (spec.assoc > 1) {
        double cmp_bits = static_cast<double>(spec.assoc)
                        * static_cast<double>(spec.compareBits);
        area += cmp_bits * comparatorAreaMm2PerBit;
        cmp_energy = cmp_bits * compareEnergyPj;
    }
    e.areaMm2 = area;

    double bits = static_cast<double>(spec.bitsPerEntry);
    e.readEnergyPj = fixedEnergyPj + bits * bitEnergyPj + cmp_energy;
    e.writeEnergyPj = fixedEnergyPj + bits * bitEnergyPj * 1.2;
    e.leakageMw = e.storageKB * leakageMwPerKB;
    return e;
}

} // namespace tdm::pwr
