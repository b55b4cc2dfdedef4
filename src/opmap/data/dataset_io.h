#ifndef OPMAP_DATA_DATASET_IO_H_
#define OPMAP_DATA_DATASET_IO_H_

#include <iosfwd>
#include <string>

#include "opmap/common/status.h"
#include "opmap/data/dataset.h"

namespace opmap {

class Env;

/// Binary dataset persistence ("OPMD" format, version 3): the schema
/// (attribute names, kinds, dictionaries, ordered flags, class index) plus
/// one raw 64-byte-aligned column array per attribute, each with its own
/// CRC32C, in the aligned section container (docs/FORMATS.md). Preserves
/// dictionary code assignments exactly. Readers verify every byte and
/// refuse every other version by number; SaveDatasetToFile replaces the
/// target atomically (write-to-temp + fsync + rename through `env`).

/// Serializes `schema` into `writer`'s stream (shared with the cube-store
/// format).
void WriteSchema(const Schema& schema, std::ostream* out);

/// Deserializes a schema previously written with WriteSchema.
Result<Schema> ReadSchema(std::istream* in);

Status SaveDataset(const Dataset& dataset, std::ostream* out);
Status SaveDatasetToFile(const Dataset& dataset, const std::string& path,
                         Env* env = nullptr);

Result<Dataset> LoadDatasetFromBytes(const std::string& bytes);
Result<Dataset> LoadDatasetFromFile(const std::string& path,
                                    Env* env = nullptr);

}  // namespace opmap

#endif  // OPMAP_DATA_DATASET_IO_H_
