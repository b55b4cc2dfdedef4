#include "opmap/data/call_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace opmap {

namespace {

constexpr int kNumTimeValues = 6;

const char* const kTimeLabels[kNumTimeValues] = {
    "early-morning", "morning", "noon", "afternoon", "evening", "night"};

std::string PhoneLabel(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "ph%02d", i + 1);
  return buf;
}

std::string ValueLabel(int i) {
  std::string label = "v";
  label.append(std::to_string(i));
  return label;
}

}  // namespace

Result<CallLogGenerator> CallLogGenerator::Make(CallLogConfig config) {
  if (config.num_records < 0) {
    return Status::InvalidArgument("num_records must be >= 0");
  }
  if (config.num_phone_models < 2) {
    return Status::InvalidArgument("need at least two phone models");
  }
  if (config.values_per_attribute < 2) {
    return Status::InvalidArgument("values_per_attribute must be >= 2");
  }
  if (config.num_property_attributes < 0) {
    return Status::InvalidArgument("num_property_attributes must be >= 0");
  }
  const int num_generic =
      config.num_attributes - 2 - config.num_property_attributes;
  if (num_generic < 0) {
    return Status::InvalidArgument(
        "num_attributes must cover PhoneModel, TimeOfCall and the property "
        "attributes");
  }
  config.phone_drop_multiplier.resize(
      static_cast<size_t>(config.num_phone_models), 1.0);

  // Build the schema.
  std::vector<Attribute> attrs;
  attrs.reserve(static_cast<size_t>(config.num_attributes) + 1);
  {
    std::vector<std::string> phones;
    for (int i = 0; i < config.num_phone_models; ++i) {
      phones.push_back(PhoneLabel(i));
    }
    attrs.push_back(Attribute::Categorical("PhoneModel", std::move(phones)));
  }
  {
    std::vector<std::string> times(kTimeLabels, kTimeLabels + kNumTimeValues);
    attrs.push_back(
        Attribute::Categorical("TimeOfCall", std::move(times), true));
  }
  for (int g = 0; g < num_generic; ++g) {
    std::vector<std::string> values;
    for (int v = 0; v < config.values_per_attribute; ++v) {
      values.push_back(ValueLabel(v));
    }
    char name[16];
    std::snprintf(name, sizeof(name), "Attr%03d", g + 3);
    attrs.push_back(Attribute::Categorical(name, std::move(values)));
  }
  for (int p = 0; p < config.num_property_attributes; ++p) {
    // One hardware version per phone model: the value never crosses phone
    // sub-populations, which is exactly the property-attribute artifact.
    std::vector<std::string> versions;
    for (int i = 0; i < config.num_phone_models; ++i) {
      versions.push_back("hw" + std::to_string(p + 1) + "-" +
                         std::to_string(i + 1));
    }
    attrs.push_back(Attribute::Categorical(
        "HardwareVersion" + std::to_string(p + 1), std::move(versions)));
  }
  attrs.push_back(Attribute::Categorical(
      "CallDisposition",
      {"ended-successfully", "dropped-while-in-progress",
       "failed-during-setup"}));

  OPMAP_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make(std::move(attrs), config.num_attributes));

  CallLogGenerator gen;
  gen.num_generic_ = num_generic;
  gen.first_property_ = 2 + num_generic;

  // Resolve planted effects against the schema.
  for (const PlantedEffect& e : config.effects) {
    OPMAP_ASSIGN_OR_RETURN(int attr, schema.IndexOf(e.attribute));
    if (schema.is_class(attr)) {
      return Status::InvalidArgument(
          "planted effect cannot target the class attribute");
    }
    OPMAP_ASSIGN_OR_RETURN(ValueCode value,
                           schema.attribute(attr).CodeOf(e.value));
    if (e.phone_model < -1 || e.phone_model >= config.num_phone_models) {
      return Status::InvalidArgument("planted effect phone model out of range");
    }
    if (e.target_class <= 0 ||
        e.target_class >= schema.class_attribute().domain()) {
      return Status::InvalidArgument(
          "planted effect must target a failure class");
    }
    if (e.odds_multiplier < 0) {
      return Status::InvalidArgument("odds multiplier must be >= 0");
    }
    gen.effects_.push_back(ResolvedEffect{attr, value, e.phone_model,
                                          e.target_class, e.odds_multiplier});
    if (gen.ground_truth_attr_ < 0) gen.ground_truth_attr_ = attr;
  }

  // Resolve usage skews.
  for (const UsageSkew& u : config.usage_skews) {
    OPMAP_ASSIGN_OR_RETURN(int attr, schema.IndexOf(u.attribute));
    if (schema.is_class(attr) || attr == 0) {
      return Status::InvalidArgument(
          "usage skew cannot target the class or phone-model attribute");
    }
    if (u.phone_model < 0 || u.phone_model >= config.num_phone_models) {
      return Status::InvalidArgument("usage skew phone model out of range");
    }
    if (attr >= gen.first_property_) {
      return Status::InvalidArgument(
          "usage skew cannot target a property attribute (its value is "
          "keyed to the phone)");
    }
    if (u.zipf_s < 0) {
      return Status::InvalidArgument("usage skew must be >= 0");
    }
    gen.usage_skews_.push_back(ResolvedSkew{attr, u.phone_model, u.zipf_s});
  }

  gen.config_ = std::move(config);
  gen.schema_ = std::move(schema);
  return gen;
}

void CallLogGenerator::VisitRows(
    int64_t count, const std::function<void(const ValueCode*)>& visit) const {
  Rng rng(config_.seed);
  const ZipfDistribution phone_dist(
      static_cast<size_t>(config_.num_phone_models), config_.phone_zipf_s);
  const ZipfDistribution value_dist(
      static_cast<size_t>(config_.values_per_attribute), config_.value_zipf_s);
  const ZipfDistribution time_dist(kNumTimeValues, 0.3);

  // Per-skew samplers over the target attribute's domain.
  std::vector<ZipfDistribution> skew_dists;
  skew_dists.reserve(usage_skews_.size());
  for (const ResolvedSkew& s : usage_skews_) {
    skew_dists.emplace_back(
        static_cast<size_t>(schema_.attribute(s.attr).domain()), s.zipf_s);
  }

  const int n = schema_.num_attributes();
  const int class_index = schema_.class_index();
  std::vector<ValueCode> row(static_cast<size_t>(n));

  for (int64_t r = 0; r < count; ++r) {
    const int phone = static_cast<int>(phone_dist.Sample(rng));
    row[0] = static_cast<ValueCode>(phone);
    row[1] = static_cast<ValueCode>(time_dist.Sample(rng));
    for (int g = 0; g < num_generic_; ++g) {
      row[static_cast<size_t>(2 + g)] =
          static_cast<ValueCode>(value_dist.Sample(rng));
    }
    for (size_t s = 0; s < usage_skews_.size(); ++s) {
      if (usage_skews_[s].phone_model == phone) {
        row[static_cast<size_t>(usage_skews_[s].attr)] =
            static_cast<ValueCode>(skew_dists[s].Sample(rng));
      }
    }
    for (int p = 0; p < config_.num_property_attributes; ++p) {
      row[static_cast<size_t>(first_property_ + p)] =
          static_cast<ValueCode>(phone);
    }

    double drop_odds = config_.base_drop_rate *
                       config_.phone_drop_multiplier[static_cast<size_t>(phone)];
    double setup_odds = config_.base_setup_failure_rate;
    for (const ResolvedEffect& e : effects_) {
      if (row[static_cast<size_t>(e.attr)] != e.value) continue;
      if (e.phone_model != -1 && e.phone_model != phone) continue;
      if (e.target_class == kDroppedWhileInProgress) {
        drop_odds *= e.odds_multiplier;
      } else {
        setup_odds *= e.odds_multiplier;
      }
    }
    setup_odds = std::clamp(setup_odds, 0.0, 0.95);
    drop_odds = std::clamp(drop_odds, 0.0, 0.95);

    ValueCode cls = kEndedSuccessfully;
    if (rng.NextBernoulli(setup_odds)) {
      cls = kFailedDuringSetup;
    } else if (rng.NextBernoulli(drop_odds)) {
      cls = kDroppedWhileInProgress;
    }
    row[static_cast<size_t>(class_index)] = cls;
    visit(row.data());
  }
}

Dataset CallLogGenerator::Generate() const {
  Dataset out(schema_);
  out.Reserve(config_.num_records);
  VisitRows(config_.num_records,
            [&](const ValueCode* row) { out.AppendRowUnchecked(row); });
  return out;
}

}  // namespace opmap
